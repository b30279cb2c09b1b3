//! The record decode: what recovery, repair and verify read out of a
//! record payload. Nothing here scans; the module keeps its old name so
//! its tests keep theirs.
//!
//! A record payload is a record exactly when it decodes as a
//! [`ScanRecord`] through the workspace's one JSON reader (`cb_json`), the
//! decode `/records` and `crawl-log` use too. [`scan_meta`] is that decode
//! followed by [`RecordMeta::of`]: the index keeps only the decoded
//! record's meta, never the record itself. The record schema alone decides
//! what is corruption — a missing field is corrupt unless it has a default,
//! every field is type-checked whether the index reads it or not, a
//! repeated known key is corrupt, and unknown keys are skipped.

use crate::index::RecordMeta;
use crawlerbox::ScanRecord;

/// Adjudicate one record payload: decode it as a [`ScanRecord`] and derive
/// the `RecordMeta` the index needs (with the segment-local `seq`), or
/// return why the payload is not a record.
pub(crate) fn scan_meta(payload: &[u8], seq: usize) -> Result<RecordMeta, cb_json::Error> {
    cb_json::from_slice::<ScanRecord>(payload).map(|r| RecordMeta::of(seq, &r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_phishgen::MessageClass;

    /// One canonical record: a visit redirected to a landing page, with a
    /// certificate and a screenshot.
    const RECORD: &str = concat!(
        r#"{"message_id":42,"content_hash":340282366920938463463374607431768211455,"#,
        r#""delivered_at":99,"auth_pass":true,"#,
        r#""extracted":[{"url":"https://evil.example/login/secure/0123abcd0123abcd","#,
        r#""source":"BodyText"}],"#,
        r#""visits":[{"requested_url":"https://evil.example/login/secure/0123abcd0123abcd","#,
        r#""chain":[["https://evil.example/login/secure/0123abcd0123abcd",302],"#,
        r#"["https://landing.example/p",200]],"outcome":"Loaded","status":200,"#,
        r#""login_form":true,"screenshot_hash":{"phash":11,"dhash":22},"spear":null,"#,
        r#""subresources":[["https://c.example/x.png",200]],"#,
        r#""exfil":[["https://c.example/post","user=bob",200]],"console_hijacked":false,"#,
        r#""debugger_hits":0,"gates_solved":["otp"],"domain_registered_at":12345,"#,
        r#""registrar":"NameCheap","cert_issued_at":null,"#,
        r#""dns_volume":{"max_per_day":7,"total":30},"banner":null,"#,
        r#""cert_fingerprint":777,"hue_rotated":false,"attempts":[],"elapsed":0,"#,
        r#""error":null}],"#,
        r#""body_bytes":2048,"blank_line_run":3,"class":"ActivePhish","error":null}"#
    );

    const ID: &str = "\"message_id\":42";
    const ERR: &str = "\"ActivePhish\",\"error\":null";
    const CERT: &str = "\"cert_fingerprint\":777";
    const SIZE: &str = "\"body_bytes\":2048";

    /// [`RECORD`] with each `(from, to)` replacing the first `from`.
    fn edit(edits: &[(&str, &str)]) -> Vec<u8> {
        let mut out = RECORD.to_string();
        for (from, to) in edits {
            assert!(out.contains(from), "edit {from:?} applies");
            out = out.replacen(from, to, 1);
        }
        out.into_bytes()
    }

    /// [`RECORD`] with the first `field` key renamed to an unknown one.
    fn rename(field: &str) -> Vec<u8> {
        edit(&[(&format!("\"{field}\":"), &format!("\"_{field}\":"))])
    }

    /// The meta of [`RECORD`] at seq 5.
    fn meta() -> RecordMeta {
        RecordMeta {
            seq: 5,
            message_id: 42,
            content_hash: u128::MAX,
            class: MessageClass::ActivePhish,
            degraded: false,
            domains: vec!["landing.example".into()],
            cert_fingerprints: vec![777],
            phashes: vec![11],
            url_schemes: vec!["a5/a6/x16".into()],
        }
    }

    fn assert_rejects(cases: &[(&str, Vec<u8>)]) {
        for (why, payload) in cases {
            assert!(scan_meta(payload, 5).is_err(), "{why} is corruption");
        }
    }

    fn assert_accepts(cases: &[(&str, Vec<u8>, RecordMeta)]) {
        for (why, payload, want) in cases {
            assert_eq!(scan_meta(payload, 5).as_ref(), Ok(want), "{why}");
        }
    }

    #[test]
    fn extracts_the_index_facts() {
        let record: ScanRecord = cb_json::from_str(RECORD).unwrap();
        assert_eq!(cb_json::to_string(&record).unwrap(), RECORD);
        assert_accepts(&[("canonical", RECORD.into(), meta())]);
    }

    #[test]
    fn defaults_match_the_serde_defaults() {
        // Defaulted fields may be absent (an `Option` reads back as
        // `None`); empty evidence is no evidence.
        let mut accepts: Vec<(&str, Vec<u8>, RecordMeta)> = vec![
            (
                "no content hash",
                edit(&[(
                    "\"content_hash\":340282366920938463463374607431768211455,",
                    "",
                )]),
                RecordMeta {
                    content_hash: 0,
                    ..meta()
                },
            ),
            ("no record error", edit(&[(ERR, "\"ActivePhish\"")]), meta()),
            (
                "no visit defaults",
                edit(&[(",\"attempts\":[],\"elapsed\":0,\"error\":null}", "}")]),
                meta(),
            ),
            (
                "no chain, cert or screenshot",
                edit(&[
                    ("\"chain\":[[", "\"chain\":[],\"_chain\":[["),
                    (CERT, "\"cert_fingerprint\":null"),
                    ("{\"phash\":11,\"dhash\":22}", "null"),
                ]),
                RecordMeta {
                    domains: vec!["evil.example".into()],
                    cert_fingerprints: vec![],
                    phashes: vec![],
                    ..meta()
                },
            ),
            (
                "no screenshot_hash",
                rename("screenshot_hash"),
                RecordMeta {
                    phashes: vec![],
                    ..meta()
                },
            ),
        ];
        for field in [
            "spear",
            "domain_registered_at",
            "registrar",
            "cert_issued_at",
            "dns_volume",
            "banner",
        ] {
            accepts.push((field, rename(field), meta()));
        }
        assert_accepts(&accepts);
    }

    #[test]
    fn degraded_records_and_escaped_strings() {
        // Escapes are decoded before the meta is derived.
        assert_accepts(&[
            (
                "escaped URL",
                edit(&[(
                    "https://evil.example/login",
                    "https:\\/\\/evil.example\\/login",
                )]),
                meta(),
            ),
            (
                "escaped error",
                edit(&[(
                    ERR,
                    "\"ActivePhish\",\"error\":\"worker \\\"boom\\\" \\u00e9\"",
                )]),
                RecordMeta {
                    degraded: true,
                    ..meta()
                },
            ),
        ]);
    }

    #[test]
    fn rejects_non_records() {
        assert_rejects(&[
            ("empty object", b"{}".to_vec()),
            ("array", b"[]".to_vec()),
            ("not json", b"not json".to_vec()),
            ("empty", Vec::new()),
            ("truncated", b"{\"message_id\":1".to_vec()),
            ("trailing bytes", format!("{RECORD} x").into_bytes()),
        ]);
        // A missing field is corruption unless the field has a default.
        for field in [
            "message_id",
            "delivered_at",
            "auth_pass",
            "extracted",
            "visits",
            "body_bytes",
            "blank_line_run",
            "class",
            "requested_url",
            "chain",
            "outcome",
            "status",
            "login_form",
            "subresources",
            "exfil",
            "console_hijacked",
            "debugger_hits",
            "gates_solved",
            "hue_rotated",
        ] {
            assert!(
                scan_meta(&rename(field), 5).is_err(),
                "no {field} is corruption"
            );
        }
    }

    #[test]
    fn rejects_mistyped_and_duplicated_evidence() {
        // Mistyped, malformed and repeated fields, read by the index or not.
        assert_rejects(&[
            ("string id", edit(&[(ID, "\"message_id\":\"42\"")])),
            ("negative id", edit(&[(ID, "\"message_id\":-42")])),
            ("fractional id", edit(&[(ID, "\"message_id\":4.2")])),
            (
                "repeated id",
                edit(&[(ID, "\"message_id\":42,\"message_id\":42")]),
            ),
            ("numeric class", edit(&[("\"ActivePhish\"", "7")])),
            (
                "numeric error",
                edit(&[(ERR, "\"ActivePhish\",\"error\":7")]),
            ),
            ("leading zero", edit(&[(SIZE, "\"body_bytes\":02048")])),
            ("string body size", edit(&[(SIZE, "\"body_bytes\":\"x\"")])),
            ("string cert", edit(&[(CERT, "\"cert_fingerprint\":\"x\"")])),
            ("hash pair without phash", edit(&[("\"phash\":11,", "")])),
        ]);
    }

    #[test]
    fn skips_unknown_fields_of_any_shape() {
        assert_accepts(&[(
            "unknown fields of any shape",
            edit(&[(
                ID,
                "\"message_id\":42,\"future\":{\"a\":[1,-2.5e3,true,null,\"s\",[{}]]}",
            )]),
            meta(),
        )]);
        // But a malformed unknown value is still a corrupt payload.
        assert_rejects(&[(
            "malformed unknown field",
            edit(&[(ID, "\"message_id\":42,\"future\":01")]),
        )]);
    }

    #[test]
    fn bounds_depth_and_validates_strings() {
        assert_rejects(&[
            (
                "depth bomb",
                format!("{}1", "{\"a\":".repeat(300)).into_bytes(),
            ),
            ("invalid UTF-8", b"{\"message_id\":\xff}".to_vec()),
            ("lone surrogate", edit(&[("ActivePhish", "\\ud800oops")])),
            (
                "surrogate pair, no class",
                edit(&[("ActivePhish", "\\ud83d\\ude00")]),
            ),
            ("control character", edit(&[("ActivePhish", "bad\nclass")])),
        ]);
        // A correctly paired escaped surrogate decodes to its one scalar.
        let paired = edit(&[("NameCheap", "\\ud83d\\ude00")]);
        assert_accepts(&[("surrogate pair", paired.clone(), meta())]);
        let record: ScanRecord = cb_json::from_slice(&paired).unwrap();
        assert_eq!(record.visits[0].registrar.as_deref(), Some("\u{1f600}"));
    }
}
