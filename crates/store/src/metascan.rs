//! Borrowed meta extraction from canonical record payloads.
//!
//! Recovery used to deserialize every segment payload into a full
//! `ScanRecord` — materializing every visit chain, subresource list and
//! exfil body as owned `String`s — only to boil it straight down into a
//! compact [`RecordMeta`](crate::index::RecordMeta). This module walks the
//! payload bytes once instead, borrowing the handful of spans the index
//! needs (message id, content hash, class, error presence, and per-visit
//! landing/cert/phash evidence) and skipping everything else in place.
//!
//! The walk still validates what the old decode validated where it
//! matters for corruption adjudication: the payload must be one
//! syntactically complete JSON object with nothing trailing, every field
//! the canonical encoding always writes must be present exactly once, and
//! every extracted field must have the type the record schema gives it.
//! Fields the index never reads are skipped as arbitrary JSON values
//! rather than re-type-checked — a CRC-valid payload that is a complete
//! JSON object carrying the full required field set with correctly typed
//! evidence fields, yet mistypes an unread field, is not a corruption
//! shape that occurs in practice, and debug builds cross-check every
//! accepted payload against the full derived decode (see
//! [`shard`](crate::shard)).
//!
//! Strings are returned as `Cow::Borrowed` unless they contain escapes —
//! canonical URLs and class names never do, so steady-state recovery
//! allocates one `Vec` of visit facts per record and nothing per string.

use std::borrow::Cow;
use std::fmt;

/// Nesting bound while skipping unread values (cb-json's parser limit).
const MAX_DEPTH: u32 = 128;

/// Why a payload failed the meta scan, with the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScanError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.at)
    }
}

/// The index-relevant facts of one visit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScannedVisit<'a> {
    /// The `requested_url` field.
    pub requested_url: Cow<'a, str>,
    /// URL of the last `chain` entry (`None` when the chain is empty, in
    /// which case the landing URL is the requested URL).
    pub final_url: Option<Cow<'a, str>>,
    /// The `cert_fingerprint` field.
    pub cert_fingerprint: Option<u64>,
    /// `screenshot_hash.phash`, when a screenshot was captured.
    pub phash: Option<u64>,
}

/// The index-relevant facts of one record payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScannedRecord<'a> {
    /// The `message_id` field.
    pub message_id: usize,
    /// The `content_hash` field (0 when absent, matching its derived
    /// default).
    pub content_hash: u128,
    /// The `class` variant name, undecoded.
    pub class: Cow<'a, str>,
    /// Whether the `error` field holds a string (scan degraded).
    pub degraded: bool,
    /// Per-visit evidence, in log order.
    pub visits: Vec<ScannedVisit<'a>>,
}

/// Fields the canonical record encoding always writes. `content_hash` and
/// `error` are `#[serde(default)]` on the record and may be absent in
/// legacy payloads.
const RECORD_REQUIRED: [&str; 8] = [
    "message_id",
    "delivered_at",
    "auth_pass",
    "extracted",
    "visits",
    "body_bytes",
    "blank_line_run",
    "class",
];

/// Fields the canonical visit encoding always writes (`cert_fingerprint`,
/// `attempts`, `elapsed` and `error` are defaulted and may be absent).
const VISIT_REQUIRED: [&str; 18] = [
    "requested_url",
    "chain",
    "outcome",
    "status",
    "login_form",
    "screenshot_hash",
    "spear",
    "subresources",
    "exfil",
    "console_hijacked",
    "debugger_hits",
    "gates_solved",
    "domain_registered_at",
    "registrar",
    "cert_issued_at",
    "dns_volume",
    "banner",
    "hue_rotated",
];

/// Scan one canonical record payload, extracting the index facts without
/// materializing the record.
///
/// # Errors
///
/// Any syntax error, truncation, trailing bytes, duplicated or missing
/// required field, or mistyped extracted field.
pub(crate) fn scan_record(payload: &[u8]) -> Result<ScannedRecord<'_>, ScanError> {
    let mut c = Cursor {
        b: payload,
        at: 0,
        depth: 0,
    };
    let rec = c.record()?;
    c.skip_ws();
    if c.at != c.b.len() {
        return Err(c.err("trailing bytes after record"));
    }
    Ok(rec)
}

struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
    depth: u32,
}

impl<'a> Cursor<'a> {
    fn err(&self, reason: impl Into<String>) -> ScanError {
        ScanError {
            at: self.at,
            reason: reason.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), ScanError> {
        self.skip_ws();
        if self.peek() == Some(want) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", want as char)))
        }
    }

    /// The top-level record object.
    fn record(&mut self) -> Result<ScannedRecord<'a>, ScanError> {
        let mut out = ScannedRecord {
            message_id: 0,
            content_hash: 0,
            class: Cow::Borrowed(""),
            degraded: false,
            visits: Vec::new(),
        };
        let mut seen: Vec<&str> = Vec::new();
        self.object(|c, key| {
            match key.as_ref() {
                "message_id" => out.message_id = c.uint()? as usize,
                "content_hash" => out.content_hash = c.uint128()?,
                "class" => out.class = c.string()?,
                "error" => out.degraded = c.nullable_string()?.is_some(),
                "visits" => {
                    c.expect(b'[')?;
                    c.skip_ws();
                    if c.peek() == Some(b']') {
                        c.at += 1;
                    } else {
                        loop {
                            out.visits.push(c.visit()?);
                            c.skip_ws();
                            match c.peek() {
                                Some(b',') => c.at += 1,
                                Some(b']') => {
                                    c.at += 1;
                                    break;
                                }
                                _ => return Err(c.err("expected ',' or ']' in visits")),
                            }
                        }
                    }
                }
                _ => c.skip_value()?,
            }
            track_seen(c, &mut seen, key)
        })?;
        for want in RECORD_REQUIRED {
            if !seen.contains(&want) {
                return Err(self.err(format!("record missing field {want:?}")));
            }
        }
        Ok(out)
    }

    /// One element of the `visits` array.
    fn visit(&mut self) -> Result<ScannedVisit<'a>, ScanError> {
        let mut out = ScannedVisit {
            requested_url: Cow::Borrowed(""),
            final_url: None,
            cert_fingerprint: None,
            phash: None,
        };
        let mut seen: Vec<&str> = Vec::new();
        self.object(|c, key| {
            match key.as_ref() {
                "requested_url" => out.requested_url = c.string()?,
                "cert_fingerprint" => out.cert_fingerprint = c.nullable_uint()?,
                "screenshot_hash" => out.phash = c.screenshot_phash()?,
                "chain" => {
                    // `Vec<(String, u16)>`: an array of two-element
                    // arrays. Only the last element's URL is evidence
                    // (the landing URL); statuses are skipped.
                    c.expect(b'[')?;
                    c.skip_ws();
                    if c.peek() == Some(b']') {
                        c.at += 1;
                    } else {
                        loop {
                            c.expect(b'[')?;
                            out.final_url = Some(c.string()?);
                            c.expect(b',')?;
                            c.skip_value()?;
                            c.expect(b']')?;
                            c.skip_ws();
                            match c.peek() {
                                Some(b',') => c.at += 1,
                                Some(b']') => {
                                    c.at += 1;
                                    break;
                                }
                                _ => return Err(c.err("expected ',' or ']' in chain")),
                            }
                        }
                    }
                }
                _ => c.skip_value()?,
            }
            track_seen(c, &mut seen, key)
        })?;
        for want in VISIT_REQUIRED {
            if !seen.contains(&want) {
                return Err(self.err(format!("visit missing field {want:?}")));
            }
        }
        Ok(out)
    }

    /// `screenshot_hash`: `null`, or a hash-pair object whose `phash` is
    /// the indexed value.
    fn screenshot_phash(&mut self) -> Result<Option<u64>, ScanError> {
        self.skip_ws();
        if self.b[self.at..].starts_with(b"null") {
            self.at += 4;
            return Ok(None);
        }
        let mut phash = None;
        self.object(|c, key| {
            if key.as_ref() == "phash" {
                phash = Some(c.uint()?);
            } else {
                c.skip_value()?;
            }
            Ok(())
        })?;
        match phash {
            Some(p) => Ok(Some(p)),
            None => Err(self.err("screenshot_hash missing phash")),
        }
    }

    /// Walk one object, handing each key/value to `field` (which must
    /// consume the value).
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ScanError>,
    ) -> Result<(), ScanError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// A JSON string, borrowed when escape-free.
    fn string(&mut self) -> Result<Cow<'a, str>, ScanError> {
        self.expect(b'"')?;
        let start = self.at;
        // Fast path: scan to the closing quote; fall to the slow path at
        // the first escape.
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let raw = &self.b[start..self.at];
                    self.at += 1;
                    let s = std::str::from_utf8(raw)
                        .map_err(|e| self.err(format!("invalid UTF-8 in string: {e}")))?;
                    if let Some(ctl) = s.bytes().position(|b| b < 0x20) {
                        self.at = start + ctl;
                        return Err(self.err("unescaped control character in string"));
                    }
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(_) => self.at += 1,
            }
        }
        let mut owned = String::new();
        let prefix = std::str::from_utf8(&self.b[start..self.at])
            .map_err(|e| self.err(format!("invalid UTF-8 in string: {e}")))?;
        if let Some(ctl) = prefix.bytes().position(|b| b < 0x20) {
            self.at = start + ctl;
            return Err(self.err("unescaped control character in string"));
        }
        owned.push_str(prefix);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(Cow::Owned(owned));
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => owned.push('"'),
                        Some(b'\\') => owned.push('\\'),
                        Some(b'/') => owned.push('/'),
                        Some(b'b') => owned.push('\u{8}'),
                        Some(b'f') => owned.push('\u{c}'),
                        Some(b'n') => owned.push('\n'),
                        Some(b'r') => owned.push('\r'),
                        Some(b't') => owned.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            owned.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    let run = self.at;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.at += 1;
                    }
                    owned.push_str(
                        std::str::from_utf8(&self.b[run..self.at])
                            .map_err(|e| self.err(format!("invalid UTF-8 in string: {e}")))?,
                    );
                }
            }
        }
    }

    /// The four hex digits after `\u`, pairing surrogates. Leaves the
    /// cursor on the last consumed digit (caller bumps past it).
    fn unicode_escape(&mut self) -> Result<char, ScanError> {
        let hi = self.hex4()?;
        if (0xDC00..=0xDFFF).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        if (0xD800..=0xDBFF).contains(&hi) {
            // A high surrogate must be chased by an escaped low one.
            if self.b[self.at..].first() != Some(&b'\\')
                || self.b[self.at + 1..].first() != Some(&b'u')
            {
                return Err(self.err("unpaired high surrogate"));
            }
            self.at += 2;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, ScanError> {
        let digits = self
            .b
            .get(self.at..self.at + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let mut v = 0u32;
        for &d in digits {
            let nibble = match d {
                b'0'..=b'9' => d - b'0',
                b'a'..=b'f' => d - b'a' + 10,
                b'A'..=b'F' => d - b'A' + 10,
                _ => return Err(self.err("invalid unicode escape digit")),
            };
            v = (v << 4) | nibble as u32;
        }
        self.at += 4;
        Ok(v)
    }

    /// A non-negative integer with JSON number grammar (no sign, no
    /// fraction, no exponent, no leading zeros) fitting `u128`.
    fn uint128(&mut self) -> Result<u128, ScanError> {
        self.skip_ws();
        let start = self.at;
        let mut v: u128 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add((d - b'0') as u128))
                .ok_or_else(|| self.err("integer out of range"))?;
            self.at += 1;
        }
        let len = self.at - start;
        if len == 0 {
            return Err(self.err("expected unsigned integer"));
        }
        if len > 1 && self.b[start] == b'0' {
            return Err(self.err("leading zero in integer"));
        }
        Ok(v)
    }

    fn uint(&mut self) -> Result<u64, ScanError> {
        let v = self.uint128()?;
        u64::try_from(v).map_err(|_| self.err("integer out of range"))
    }

    /// `null` or a string (the shape of a defaulted `Option<String>`).
    fn nullable_string(&mut self) -> Result<Option<Cow<'a, str>>, ScanError> {
        self.skip_ws();
        if self.b[self.at..].starts_with(b"null") {
            self.at += 4;
            Ok(None)
        } else {
            self.string().map(Some)
        }
    }

    /// `null` or an unsigned integer (the shape of `Option<u64>`).
    fn nullable_uint(&mut self) -> Result<Option<u64>, ScanError> {
        self.skip_ws();
        if self.b[self.at..].starts_with(b"null") {
            self.at += 4;
            Ok(None)
        } else {
            self.uint().map(Some)
        }
    }

    /// Skip one complete JSON value of any shape.
    fn skip_value(&mut self) -> Result<(), ScanError> {
        self.skip_ws();
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("value nested too deeply"));
        }
        let result = match self.peek() {
            None => Err(self.err("unexpected end of payload")),
            Some(b'"') => self.string().map(drop),
            Some(b'{') => self.object(|c, _| c.skip_value()),
            Some(b'[') => {
                self.at += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    Ok(())
                } else {
                    loop {
                        self.skip_value()?;
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.at += 1,
                            Some(b']') => {
                                self.at += 1;
                                break Ok(());
                            }
                            _ => break Err(self.err("expected ',' or ']' in array")),
                        }
                    }
                }
            }
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.skip_number(),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
        };
        self.depth -= 1;
        result
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), ScanError> {
        if self.b[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", String::from_utf8_lossy(word))))
        }
    }

    /// Skip one number with the strict JSON grammar.
    fn skip_number(&mut self) -> Result<(), ScanError> {
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.at += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        Ok(())
    }
}

/// Record `key` as seen, rejecting duplicates of the fields the scan
/// extracts or requires (the derived decoder's duplicate-field error; duplicates of
/// unknown fields are ignored, as the decoder ignores them).
fn track_seen(c: &Cursor<'_>, seen: &mut Vec<&str>, key: Cow<'_, str>) -> Result<(), ScanError> {
    const TRACKED: [&str; 31] = [
        "message_id",
        "content_hash",
        "delivered_at",
        "auth_pass",
        "extracted",
        "visits",
        "body_bytes",
        "blank_line_run",
        "class",
        "error",
        "requested_url",
        "chain",
        "outcome",
        "status",
        "login_form",
        "screenshot_hash",
        "spear",
        "subresources",
        "exfil",
        "console_hijacked",
        "debugger_hits",
        "gates_solved",
        "domain_registered_at",
        "registrar",
        "cert_issued_at",
        "dns_volume",
        "banner",
        "hue_rotated",
        "cert_fingerprint",
        "attempts",
        "elapsed",
    ];
    if let Some(&tracked) = TRACKED.iter().find(|t| **t == key.as_ref()) {
        if seen.contains(&tracked) {
            return Err(c.err(format!("duplicate field {tracked:?}")));
        }
        seen.push(tracked);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canonical-shaped visit with every always-written field.
    fn visit_json(requested: &str, chain: &str, cert: &str, shot: &str) -> String {
        format!(
            concat!(
                "{{\"requested_url\":\"{}\",\"chain\":{},\"outcome\":\"Loaded\",",
                "\"status\":200,\"login_form\":true,\"screenshot_hash\":{},",
                "\"spear\":null,\"subresources\":[[\"https://c.example/x.png\",200]],",
                "\"exfil\":[[\"https://c.example/post\",\"user=bob\",200]],",
                "\"console_hijacked\":false,\"debugger_hits\":0,\"gates_solved\":[\"otp\"],",
                "\"domain_registered_at\":12345,\"registrar\":\"NameCheap\",",
                "\"cert_issued_at\":null,\"dns_volume\":{{\"total\":7,\"days\":30}},",
                "\"banner\":null,\"cert_fingerprint\":{},\"hue_rotated\":false}}"
            ),
            requested, chain, shot, cert
        )
    }

    fn record_json(visits: &str) -> String {
        format!(
            concat!(
                "{{\"message_id\":42,\"content_hash\":340282366920938463463374607431768211455,",
                "\"delivered_at\":99,\"auth_pass\":true,\"extracted\":[{{\"url\":\"x\"}}],",
                "\"visits\":{},\"body_bytes\":2048,\"blank_line_run\":3,",
                "\"class\":\"ActivePhish\",\"error\":null}}"
            ),
            visits
        )
    }

    #[test]
    fn extracts_the_index_facts() {
        let v = visit_json(
            "https://evil.example/go",
            "[[\"https://evil.example/go\",302],[\"https://landing.example/p\",200]]",
            "777",
            "{\"phash\":11,\"dhash\":22}",
        );
        let json = record_json(&format!("[{v}]"));
        let rec = scan_record(json.as_bytes()).unwrap();
        assert_eq!(rec.message_id, 42);
        assert_eq!(rec.content_hash, u128::MAX);
        assert_eq!(rec.class, "ActivePhish");
        assert!(!rec.degraded);
        assert_eq!(rec.visits.len(), 1);
        let visit = &rec.visits[0];
        assert_eq!(visit.requested_url, "https://evil.example/go");
        assert_eq!(
            visit.final_url.as_deref(),
            Some("https://landing.example/p")
        );
        assert_eq!(visit.cert_fingerprint, Some(777));
        assert_eq!(visit.phash, Some(11));
    }

    #[test]
    fn defaults_match_the_serde_defaults() {
        // No content_hash / error keys at all (legacy shape), empty chain,
        // null cert and screenshot.
        let v = visit_json("https://a.example/q", "[]", "null", "null");
        let json = format!(
            concat!(
                "{{\"message_id\":1,\"delivered_at\":0,\"auth_pass\":false,",
                "\"extracted\":[],\"visits\":[{}],\"body_bytes\":0,",
                "\"blank_line_run\":0,\"class\":\"NoResource\"}}"
            ),
            v
        );
        let rec = scan_record(json.as_bytes()).unwrap();
        assert_eq!(rec.content_hash, 0);
        assert!(!rec.degraded);
        let visit = &rec.visits[0];
        assert_eq!(visit.final_url, None);
        assert_eq!(visit.cert_fingerprint, None);
        assert_eq!(visit.phash, None);
    }

    #[test]
    fn degraded_records_and_escaped_strings() {
        let json = concat!(
            "{\"message_id\":7,\"delivered_at\":0,\"auth_pass\":false,",
            "\"extracted\":[],\"visits\":[],\"body_bytes\":0,\"blank_line_run\":0,",
            "\"class\":\"ErrorPage\",\"error\":\"worker panic: \\\"boom\\\" \\u00e9\"}"
        );
        let rec = scan_record(json.as_bytes()).unwrap();
        assert!(rec.degraded);
        // Escape decoding is exercised through a visit URL too.
        let v = visit_json("https:\\/\\/odd.example\\/p", "[]", "null", "null");
        let json = record_json(&format!("[{v}]"));
        let rec = scan_record(json.as_bytes()).unwrap();
        assert_eq!(rec.visits[0].requested_url, "https://odd.example/p");
    }

    #[test]
    fn rejects_non_records() {
        for (payload, why) in [
            (&b"{}"[..], "empty object"),
            (b"[]", "not an object"),
            (b"not json", "not json"),
            (b"", "empty"),
            (b"{\"message_id\":1", "truncated"),
        ] {
            assert!(scan_record(payload).is_err(), "{why} must fail the scan");
        }
        let good = record_json("[]");
        assert!(scan_record(good.as_bytes()).is_ok());
        assert!(
            scan_record(format!("{good} x").as_bytes()).is_err(),
            "trailing bytes must fail"
        );
        // Dropping any required record field fails the scan.
        for field in RECORD_REQUIRED {
            let without = good.replace(&format!("\"{field}\":"), &format!("\"_{field}\":"));
            assert!(
                scan_record(without.as_bytes()).is_err(),
                "missing {field} must fail"
            );
        }
        // Same per visit.
        let v = visit_json("https://a.example/q", "[]", "null", "null");
        let good = record_json(&format!("[{v}]"));
        for field in VISIT_REQUIRED {
            let without = good.replace(&format!("\"{field}\":"), &format!("\"_{field}\":"));
            assert!(
                scan_record(without.as_bytes()).is_err(),
                "missing {field} must fail"
            );
        }
    }

    #[test]
    fn rejects_mistyped_and_duplicated_evidence() {
        let good = record_json("[]");
        for (from, to) in [
            ("\"message_id\":42", "\"message_id\":\"42\""),
            ("\"message_id\":42", "\"message_id\":-42"),
            ("\"message_id\":42", "\"message_id\":4.2"),
            ("\"class\":\"ActivePhish\"", "\"class\":7"),
            ("\"error\":null", "\"error\":7"),
            ("\"message_id\":42", "\"message_id\":42,\"message_id\":42"),
            ("\"body_bytes\":2048", "\"body_bytes\":02048"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "replacement {from:?} must apply");
            assert!(
                scan_record(bad.as_bytes()).is_err(),
                "{to} must fail the scan"
            );
        }
        let v = visit_json("https://a.example/q", "[]", "\"tampered\"", "null");
        assert!(scan_record(record_json(&format!("[{v}]")).as_bytes()).is_err());
        let v = visit_json("https://a.example/q", "[]", "null", "{\"dhash\":2}");
        assert!(
            scan_record(record_json(&format!("[{v}]")).as_bytes()).is_err(),
            "hash pair without phash must fail"
        );
    }

    #[test]
    fn skips_unknown_fields_of_any_shape() {
        let good = record_json("[]");
        let extended = good.replace(
            "\"message_id\":42,",
            concat!(
                "\"message_id\":42,\"future\":{\"deep\":[1,-2.5e3,true,null,\"s\"],",
                "\"more\":{\"x\":[[]]}},"
            ),
        );
        assert!(scan_record(extended.as_bytes()).is_ok());
        // But a malformed unknown value is still a corrupt payload.
        let broken = good.replace("\"message_id\":42,", "\"message_id\":42,\"future\":01,");
        assert!(scan_record(broken.as_bytes()).is_err());
    }

    #[test]
    fn bounds_depth_and_validates_strings() {
        let bomb = format!(
            "{}{}",
            "{\"a\":".repeat(300),
            // Unclosed on purpose: the depth bound must trip first.
            "1"
        );
        assert!(scan_record(bomb.as_bytes()).is_err());
        let bad_utf8 = b"{\"message_id\":\xff}".to_vec();
        assert!(scan_record(&bad_utf8).is_err());
        let lone_surrogate = record_json("[]").replace("ActivePhish", "\\ud800oops");
        assert!(scan_record(lone_surrogate.as_bytes()).is_err());
        let paired = record_json("[]").replace("ActivePhish", "\\ud83d\\ude00");
        let rec = scan_record(paired.as_bytes()).unwrap();
        assert_eq!(rec.class, "😀");
        let control = record_json("[]").replace("ActivePhish", "bad\nclass");
        assert!(scan_record(control.as_bytes()).is_err());
    }
}
