//! Property-based tests over the core substrates and invariants.

use cb_email::codec::{
    base64_decode, base64_encode, quoted_printable_decode, quoted_printable_encode,
};
use cb_netsim::Url;
use cb_qr::{decode_matrix, encode_bytes, EcLevel};
use cb_sim::prop::{bytes, check, check_from, one_of, string, vec};
use cb_sim::{prop_assert, prop_assert_eq};
use cb_stats::Histogram;
use std::sync::OnceLock;

mod common;

/// A tiny shared corpus for pipeline fuzzing: generated once, scanned many
/// times with mutated message bytes.
fn fuzz_corpus() -> &'static cb_phishgen::Corpus {
    static CORPUS: OnceLock<cb_phishgen::Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        cb_phishgen::Corpus::generate(&cb_phishgen::CorpusSpec::paper().with_scale(0.01), 13)
    })
}

/// The shrunk failure once found by `mjs_lexer_never_panics`: an
/// unterminated single-quoted string whose trailing backslash escapes an
/// astral-plane character. Every `\PC` string property runs it first.
fn regression_seed() -> String {
    "'\\\u{10594}".to_string()
}

#[test]
fn base64_round_trips() {
    check("base64_round_trips", 64, bytes(0..512), |data| {
        let encoded = base64_encode(&data);
        prop_assert_eq!(base64_decode(&encoded).unwrap(), data);
        Ok(())
    });
}

#[test]
fn quoted_printable_round_trips() {
    check("quoted_printable_round_trips", 64, bytes(0..512), |data| {
        // QP is line-oriented: normalize bare CR (which QP cannot represent
        // distinctly from CRLF) out of the input.
        let data: Vec<u8> = data.into_iter().filter(|&b| b != b'\r').collect();
        let encoded = quoted_printable_encode(&data);
        let expected: Vec<u8> = data
            .iter()
            .flat_map(|&b| {
                if b == b'\n' {
                    vec![b'\r', b'\n']
                } else {
                    vec![b]
                }
            })
            .collect();
        prop_assert_eq!(quoted_printable_decode(&encoded), expected);
        Ok(())
    });
}

#[test]
fn qr_round_trips_any_payload() {
    let levels = one_of(&[EcLevel::L, EcLevel::M, EcLevel::Q, EcLevel::H]);
    check(
        "qr_round_trips_any_payload",
        64,
        (bytes(0..200), levels),
        |(data, level)| {
            if let Ok(symbol) = encode_bytes(&data, level) {
                prop_assert_eq!(decode_matrix(symbol.matrix()).unwrap(), data);
            }
            Ok(())
        },
    );
}

#[test]
fn qr_corrects_scattered_damage() {
    let inputs = (string("a-z0-9:/.", 10..=60), vec(0usize..10_000, 0..6));
    check(
        "qr_corrects_scattered_damage",
        64,
        inputs,
        |(payload, positions)| {
            let symbol = encode_bytes(payload.as_bytes(), EcLevel::H).unwrap();
            let mut damaged = symbol.matrix().clone();
            let spots = damaged.data_positions();
            for p in positions {
                let (r, c) = spots[p % spots.len()];
                let v = damaged.get(r, c);
                damaged.set(r, c, !v);
            }
            // ≤6 damaged modules -> at most 6 byte errors, well within H-level
            // correction for small symbols; decoding must not mis-decode.
            if let Ok(decoded) = decode_matrix(&damaged) {
                prop_assert_eq!(decoded, payload.as_bytes());
            }
            Ok(())
        },
    );
}

#[test]
fn zip_round_trips_arbitrary_members() {
    let members = vec((string("a-zA-Z0-9_./-", 1..=24), bytes(0..256)), 0..8);
    check(
        "zip_round_trips_arbitrary_members",
        64,
        members,
        |members| {
            // de-duplicate names (ZIP allows duplicates; our reader keeps both,
            // but equality comparison is simplest on unique names)
            let mut seen = std::collections::HashSet::new();
            let mut zip = cb_artifacts::ZipArchive::new();
            for (name, data) in &members {
                if seen.insert(name.clone()) {
                    zip.add(name, data);
                }
            }
            let parsed = cb_artifacts::ZipArchive::parse(&zip.to_bytes()).unwrap();
            prop_assert_eq!(parsed, zip);
            Ok(())
        },
    );
}

#[test]
fn url_display_parse_round_trips() {
    // host `[a-z][a-z0-9-]{0,20}\.[a-z]{2,6}`, path
    // `(/[a-zA-Z0-9_-]{0,12}){0,4}` and zero to four `&`-joined
    // `[a-z]{1,6}=[a-zA-Z0-9]{0,8}` query pairs, drawn part by part.
    let host = (
        string("a-z", 1..=1),
        string("a-z0-9-", 0..=20),
        string("a-z", 2..=6),
    );
    let path = vec(string("a-zA-Z0-9_-", 0..=12), 0..5);
    let query = vec((string("a-z", 1..=6), string("a-zA-Z0-9", 0..=8)), 0..5);
    check(
        "url_display_parse_round_trips",
        64,
        (host, path, query),
        |(host, path, query)| {
            let host = format!("{}{}.{}", host.0, host.1, host.2);
            let path: String = path.iter().map(|seg| format!("/{seg}")).collect();
            let query = query
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("&");
            let s = if query.is_empty() {
                format!(
                    "https://{host}{}",
                    if path.is_empty() { "/" } else { &path }
                )
            } else {
                format!(
                    "https://{host}{}?{query}",
                    if path.is_empty() { "/" } else { &path }
                )
            };
            let parsed = Url::parse(&s).unwrap();
            prop_assert_eq!(Url::parse(&parsed.to_string()).unwrap(), parsed);
            Ok(())
        },
    );
}

#[test]
fn histogram_conserves_observations() {
    check(
        "histogram_conserves_observations",
        64,
        vec(-50.0f64..200.0, 0..300),
        |values| {
            let mut h = Histogram::new(0.0, 90.0, 9);
            h.record_all(values.iter().copied());
            prop_assert_eq!(
                h.total_in_range() + h.underflow + h.overflow,
                values.len() as u64
            );
            Ok(())
        },
    );
}

#[test]
fn mjs_lexer_never_panics() {
    let first = [regression_seed()];
    check_from(
        "mjs_lexer_never_panics",
        64,
        &first,
        string("\\PC", 0..=200),
        |src| {
            let _ = cb_script::Script::parse(&src);
            Ok(())
        },
    );
}

#[test]
fn mime_builder_output_always_parses() {
    let inputs = (
        string("a-zA-Z0-9 ", 0..=40),
        string(" -~", 0..=300),
        bytes(0..128),
    );
    check(
        "mime_builder_output_always_parses",
        64,
        inputs,
        |(subject, body, attach)| {
            let mut b = cb_email::MessageBuilder::new();
            b.from("a@x.example")
                .to("b@y.example")
                .subject(&subject)
                .text_body(&body)
                .attach("blob.bin", "application/octet-stream", &attach);
            let raw = b.build();
            let parsed = cb_email::MimeEntity::parse(&raw).unwrap();
            let leaf = parsed
                .leaves()
                .into_iter()
                .find(|l| l.filename().is_some())
                .unwrap();
            prop_assert_eq!(leaf.body_bytes().unwrap(), &attach[..]);
            Ok(())
        },
    );
}

#[test]
fn hamming_distance_is_a_metric() {
    let any = 0..=u64::MAX;
    check(
        "hamming_distance_is_a_metric",
        64,
        (any.clone(), any.clone(), any),
        |(a, b, c)| {
            let d = cb_stats::hamming64;
            prop_assert_eq!(d(a, b), d(b, a));
            prop_assert_eq!(d(a, a), 0);
            prop_assert!(d(a, c) <= d(a, b) + d(b, c));
            Ok(())
        },
    );
}

#[test]
fn strict_url_extraction_implies_lenient() {
    use cb_qr::extract::{extract_url_lenient, extract_url_strict};
    let first = [regression_seed()];
    check_from(
        "strict_url_extraction_implies_lenient",
        64,
        &first,
        string("\\PC", 0..=80),
        |payload| {
            let bytes = payload.as_bytes();
            if let Some(strict) = extract_url_strict(bytes) {
                prop_assert_eq!(extract_url_lenient(bytes), Some(strict));
            }
            Ok(())
        },
    );
}

#[test]
fn sim_time_calendar_round_trips() {
    check(
        "sim_time_calendar_round_trips",
        128,
        -2_000_000_000i64..4_000_000_000,
        |secs| {
            use cb_sim::SimTime;
            let t = SimTime::from_unix(secs);
            let (y, m, d) = t.ymd();
            let (h, mi, s) = t.hms();
            let back = SimTime::from_ymd_hms(y, m, d, h, mi, s);
            prop_assert_eq!(back, t);
            Ok(())
        },
    );
}

#[test]
fn domain_name_invariants() {
    let labels = vec((string("a-z", 1..=1), string("a-z0-9-", 0..=10)), 1..5);
    let tld = one_of(&[".com", ".ru", ".dev", ".br", ".co.uk"]);
    check(
        "domain_name_invariants",
        128,
        (labels, tld),
        |(labels, tld)| {
            use cb_netsim::DomainName;
            let labels: Vec<String> = labels.into_iter().map(|(a, b)| a + &b).collect();
            let name = format!("{}{}", labels.join("."), tld);
            let d = DomainName::new(&name);
            // the registrable domain is a suffix of the full name
            prop_assert!(name.ends_with(&d.registrable()));
            // the TLD is a suffix of the registrable domain (modulo the
            // multi-label public-suffix collapse to the final label)
            let tld_out = d.tld();
            prop_assert!(tld_out.starts_with('.'));
            prop_assert!(d.registrable().ends_with(tld_out.trim_start_matches('.')));
            // idempotent
            prop_assert_eq!(DomainName::new(d.as_str()).registrable(), d.registrable());
            Ok(())
        },
    );
}

#[test]
fn html_parser_never_panics_and_walk_terminates() {
    let first = [regression_seed()];
    check_from(
        "html_parser_never_panics_and_walk_terminates",
        128,
        &first,
        string("\\PC", 0..=400),
        |src| {
            let doc = cb_web::Document::parse(&src);
            let _ = doc.walk().len();
            let _ = doc.visible_text();
            let _ = doc.anchor_urls();
            Ok(())
        },
    );
}

#[test]
fn scan_pipeline_survives_mutated_raw_messages() {
    let inputs = (
        0..=usize::MAX,
        vec((0usize..4096, 0..=u8::MAX), 0..24),
        0usize..8192,
    );
    check(
        "scan_pipeline_survives_mutated_raw_messages",
        128,
        inputs,
        |(pick, mutations, cut)| {
            // Byte-level fuzz over the first 4 KiB of real generated messages:
            // neither MIME parsing nor a full CrawlerBox scan may panic, no
            // matter how the wire bytes are flipped or cut short.
            let corpus = fuzz_corpus();
            let message = &corpus.messages[pick % corpus.messages.len()];
            let mut bytes = message.raw.clone().into_bytes();
            for (pos, value) in mutations {
                if bytes.is_empty() {
                    break;
                }
                let window = bytes.len().min(4096);
                bytes[pos % window] = value;
            }
            // Half the cases cut the message short somewhere in its first 4 KiB.
            if cut < 4096 {
                bytes.truncate(cut);
            }
            let raw = String::from_utf8_lossy(&bytes).into_owned();
            let _ = cb_email::MimeEntity::parse(&raw);
            let mut mutated = message.clone();
            mutated.raw = raw;
            let record = crawlerbox::CrawlerBox::new(&corpus.world).scan(&mutated);
            prop_assert_eq!(record.message_id, mutated.id);
            Ok(())
        },
    );
}

#[test]
fn describe_is_translation_equivariant() {
    let inputs = (vec(-1e3f64..1e3, 2..64), -1e3f64..1e3);
    check(
        "describe_is_translation_equivariant",
        128,
        inputs,
        |(xs, shift)| {
            use cb_stats::Describe;
            let a = Describe::of(&xs);
            let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
            let b = Describe::of(&shifted);
            prop_assert!((a.mean + shift - b.mean).abs() < 1e-6);
            prop_assert!((a.stddev - b.stddev).abs() < 1e-6);
            prop_assert!((a.median + shift - b.median).abs() < 1e-6);
            Ok(())
        },
    );
}

/// Transient fault rates the determinism properties sweep.
const FAULT_RATES: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

// Few cases: each one generates and triple-scans a fresh corpus.
#[test]
fn shared_box_scan_is_byte_identical_to_fresh_box_reference() {
    let inputs = (0u64..1_000, 0u64..1_000, one_of(&FAULT_RATES));
    check(
        "shared_box_scan_is_byte_identical_to_fresh_box_reference",
        6,
        inputs,
        |(corpus_seed, fault_seed, fault_rate)| {
            // The tentpole determinism invariant: over random corpora and fault
            // rates (up to 30% transient faults), one box scanning the whole
            // batch at one or four workers, its caches shared across
            // messages, produces byte-identical records to the fresh-box
            // reference, where no cache entry crosses messages.
            use crawlerbox::CrawlerBox;
            let corpus = cb_phishgen::Corpus::generate(
                &cb_phishgen::CorpusSpec::paper().with_scale(0.01),
                corpus_seed,
            );
            corpus
                .world
                .set_fault_plan(cb_netsim::FaultPlan::uniform(fault_seed, fault_rate));
            let subset = &corpus.messages[..corpus.messages.len().min(16)];

            let (reference, _) = common::fresh_box_scan(&corpus.world, subset, |b| b);
            let reference_json = cb_json::to_string(&reference).unwrap();
            for workers in [1, 4] {
                let mut cbx = CrawlerBox::new(&corpus.world);
                cbx.parallelism = workers;
                prop_assert_eq!(
                    cb_json::to_string(&cbx.scan_all(subset)).unwrap(),
                    reference_json.clone(),
                    "diverged for {} worker(s)",
                    workers
                );
            }
            Ok(())
        },
    );
}

#[test]
fn streamed_scan_is_byte_identical_to_batch() {
    let inputs = (0u64..1_000, 0u64..1_000, one_of(&FAULT_RATES), 1usize..6);
    check(
        "streamed_scan_is_byte_identical_to_batch",
        6,
        inputs,
        |(corpus_seed, fault_seed, fault_rate, capacity)| {
            // The streaming pipeline's purity invariant: at every worker count
            // and transient fault rates up to 30%, driving the same messages
            // through `scan_stream` yields records byte-identical to the
            // fresh-box reference.
            use crawlerbox::{CrawlerBox, ScanRecord};
            let corpus = cb_phishgen::Corpus::generate(
                &cb_phishgen::CorpusSpec::paper().with_scale(0.01),
                corpus_seed,
            );
            corpus
                .world
                .set_fault_plan(cb_netsim::FaultPlan::uniform(fault_seed, fault_rate));
            let subset = &corpus.messages[..corpus.messages.len().min(16)];

            let (reference, _) = common::fresh_box_scan(&corpus.world, subset, |b| b);
            let reference_json = cb_json::to_string(&reference).unwrap();

            for workers in [1, 4] {
                let mut cbx = CrawlerBox::new(&corpus.world).with_stream_capacity(capacity);
                cbx.parallelism = workers;
                let mut streamed: Vec<ScanRecord> = Vec::new();
                let delivered = cbx.scan_stream(subset.iter().cloned(), &mut streamed);
                prop_assert_eq!(delivered, subset.len());
                let bound = (cbx.stream_capacity() + cbx.parallelism) as u64;
                prop_assert!(cbx.stats().peak_in_flight <= bound);
                prop_assert_eq!(
                    cb_json::to_string(&streamed).unwrap(),
                    reference_json.clone(),
                    "diverged for {} worker(s)",
                    workers
                );
            }
            Ok(())
        },
    );
}

/// Regression seeds kept as named, always-run tests as well: a named test
/// shows up in test output by name and needs no property to replay it.
mod regressions {
    /// Found by `mjs_lexer_never_panics` (see `regression_seed`): the input
    /// shrank to an unterminated single-quoted string whose trailing
    /// backslash escapes an astral-plane character (U+10594), so the lexer
    /// must step over a multi-byte UTF-8 escape at end-of-input without
    /// slicing mid-codepoint or running past the buffer.
    #[test]
    fn mjs_lexer_handles_trailing_escaped_astral_char() {
        let _ = cb_script::Script::parse("'\\\u{10594}");
    }

    /// The same shape with more escape/terminator permutations at the end
    /// of the input, so near-miss variants stay covered too.
    #[test]
    fn mjs_lexer_handles_truncated_string_escapes() {
        for src in [
            "'\\",           // escape then EOF
            "\"\\\u{10594}", // double-quoted variant
            "'\\\u{10594}'", // terminated after the astral escape
            "`\\\u{10594}",  // template-literal variant
            "'\\\u{7f}",     // escaped ASCII control at EOF
        ] {
            let _ = cb_script::Script::parse(src);
        }
    }
}
