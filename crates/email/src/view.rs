//! Zero-copy parsing primitives over raw message text.
//!
//! The crate has one MIME tree, the owned [`MimeEntity`](crate::MimeEntity),
//! and its parsers ([`HeaderMap::parse`](crate::HeaderMap::parse),
//! [`MimeEntity::parse`](crate::MimeEntity::parse),
//! [`ContentType::parse`](crate::ContentType::parse)) are thin
//! materializing wrappers over the borrowed primitives in this module:
//!
//! * [`HeaderIter`] walks a header block yielding [`HeaderField`]s whose
//!   name and value are spans into the block — unfolding is deferred until
//!   [`HeaderField::value`] (or [`HeaderField::append_value`], which writes
//!   into a caller-provided reusable buffer).
//! * [`ContentTypeRef`] parses a `Content-Type` value without building the
//!   parameter map; parameters are matched lazily against the raw span.
//! * [`split_header_body`] and `split_multipart_offsets` cut an entity into
//!   its header block, body and multipart part spans without copying.
//!
//! Every function here is behaviour-identical to the original owned
//! parsers (kept verbatim in [`crate::reference`]); the equivalence is
//! enforced by differential tests over fuzzed inputs.

use crate::content_type::{ContentType, MediaType};
use crate::header::ParseHeaderError;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// RFC 5322 `ftext`: printable US-ASCII except `:`. Notably this excludes
/// space and tab, so a header name with trailing whitespace before the
/// colon (`"Subject : x"`) is rejected rather than folded into the name.
#[inline]
pub fn is_ftext_byte(b: u8) -> bool {
    (0x21..=0x7e).contains(&b) && b != b':'
}

/// Find the first occurrence of `needle` in `haystack[from..]`, scanning
/// eight bytes per step with a SWAR zero-byte test.
#[inline]
pub(crate) fn find_byte(haystack: &[u8], needle: u8, from: usize) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let spread = LO.wrapping_mul(needle as u64);
    let mut i = from;
    while i + 8 <= haystack.len() {
        let w = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8-byte chunk"));
        let x = w ^ spread;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return Some(i + (hit.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    while i < haystack.len() {
        if haystack[i] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Line walker matching the original parser's
/// `split("\r\n").flat_map(split('\n'))` semantics: `\n` terminates a line
/// and one immediately preceding `\r` is stripped; a lone `\r` stays in the
/// line. Yields `(line_start_offset, line)`.
#[derive(Clone, Copy)]
struct LineCursor<'a> {
    block: &'a str,
    pos: usize,
}

impl<'a> LineCursor<'a> {
    fn new(block: &'a str) -> LineCursor<'a> {
        LineCursor { block, pos: 0 }
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        if self.pos > self.block.len() {
            return None;
        }
        let start = self.pos;
        let line = match find_byte(self.block.as_bytes(), b'\n', self.pos) {
            Some(nl) => {
                self.pos = nl + 1;
                // A `\r` is consumed only as part of a CRLF pair; the final
                // unterminated line keeps any trailing `\r` (matching the
                // `split("\r\n")`-then-`split('\n')` original).
                self.block[start..nl]
                    .strip_suffix('\r')
                    .unwrap_or(&self.block[start..nl])
            }
            None => {
                self.pos = self.block.len() + 1;
                &self.block[start..]
            }
        };
        Some((start, line))
    }
}

/// One header field as spans into the block: the raw (still folded) value
/// is kept as a first-line span plus a continuation-region span, and only
/// unfolded on demand.
#[derive(Debug, Clone, Copy)]
pub struct HeaderField<'a> {
    name: &'a str,
    /// Raw text after the `:` on the field's first line.
    first: &'a str,
    /// Span covering the field's continuation lines (empty if unfolded).
    rest: &'a str,
}

impl<'a> HeaderField<'a> {
    /// The field name (exact wire spelling; names compare
    /// case-insensitively).
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Whether the value was folded across lines on the wire.
    pub fn is_folded(&self) -> bool {
        !self.rest.is_empty()
    }

    /// The unfolded value. Borrows the block untouched when the field was
    /// not folded — the dominant case — and allocates only when folded
    /// lines must be joined.
    pub fn value(&self) -> Cow<'a, str> {
        if self.rest.is_empty() {
            return Cow::Borrowed(self.first.trim());
        }
        let mut out = String::with_capacity(self.first.len() + self.rest.len());
        self.append_value(&mut out);
        Cow::Owned(out)
    }

    /// Append the unfolded value to `out` — the zero-allocation variant for
    /// callers that reuse one scratch buffer across many fields.
    pub fn append_value(&self, out: &mut String) {
        out.push_str(self.first.trim());
        let mut lines = LineCursor::new(self.rest);
        while let Some((_, line)) = lines.next_line() {
            if line.is_empty() {
                continue;
            }
            out.push(' ');
            out.push_str(line.trim_start());
        }
    }
}

/// Streaming parser over a header block, yielding borrowed
/// [`HeaderField`]s. Allocation-free: fields reference the block.
///
/// Errors match [`HeaderMap::parse`](crate::HeaderMap::parse) exactly; on
/// the first malformed line the iterator yields `Err` (dropping any field
/// still being folded) and then fuses.
pub struct HeaderIter<'a> {
    lines: LineCursor<'a>,
    block: &'a str,
    pending: Option<Pending<'a>>,
    line_idx: usize,
    done: bool,
}

struct Pending<'a> {
    name: &'a str,
    first: &'a str,
    /// Continuation region as offsets into the block.
    rest: Option<(usize, usize)>,
}

impl<'a> Pending<'a> {
    fn into_field(self, block: &'a str) -> HeaderField<'a> {
        let rest = match self.rest {
            Some((s, e)) => &block[s..e],
            None => "",
        };
        HeaderField {
            name: self.name,
            first: self.first,
            rest,
        }
    }
}

impl<'a> HeaderIter<'a> {
    /// Iterate the fields of `block` (everything before the blank line
    /// separating headers from body).
    pub fn new(block: &'a str) -> HeaderIter<'a> {
        HeaderIter {
            lines: LineCursor::new(block),
            block,
            pending: None,
            line_idx: 0,
            done: false,
        }
    }
}

impl<'a> Iterator for HeaderIter<'a> {
    type Item = Result<HeaderField<'a>, ParseHeaderError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let Some((start, line)) = self.lines.next_line() else {
                self.done = true;
                return self.pending.take().map(|p| Ok(p.into_field(self.block)));
            };
            let idx = self.line_idx;
            self.line_idx += 1;
            if line.is_empty() {
                continue;
            }
            if line.starts_with(' ') || line.starts_with('\t') {
                match &mut self.pending {
                    Some(p) => {
                        let end = start + line.len();
                        p.rest = Some(match p.rest {
                            Some((s, _)) => (s, end),
                            None => (start, end),
                        });
                        continue;
                    }
                    None => {
                        self.done = true;
                        return Some(Err(ParseHeaderError::LeadingContinuation));
                    }
                }
            }
            let Some(colon) = line.find(':') else {
                self.done = true;
                return Some(Err(ParseHeaderError::MissingColon { line: idx }));
            };
            let name = &line[..colon];
            if name.is_empty() {
                self.done = true;
                return Some(Err(ParseHeaderError::MissingColon { line: idx }));
            }
            if let Some(bad) = name.bytes().find(|&b| !is_ftext_byte(b)) {
                self.done = true;
                return Some(Err(ParseHeaderError::InvalidFieldName {
                    line: idx,
                    byte: bad,
                }));
            }
            let next = Pending {
                name,
                first: &line[colon + 1..],
                rest: None,
            };
            if let Some(prev) = self.pending.replace(next) {
                return Some(Ok(prev.into_field(self.block)));
            }
        }
    }
}

/// Case-insensitive lowercase that borrows when the input is already
/// lowercase.
fn lower_cow(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// A borrowed `Content-Type` value: the `type/subtype` pair as spans and
/// the parameter region untouched until a parameter is asked for.
#[derive(Debug, Clone, Copy)]
pub struct ContentTypeRef<'a> {
    /// Trimmed `(top, sub)` spans; `None` means the RFC 2045 `text/plain`
    /// default (unparseable or absent mime pair).
    mime: Option<(&'a str, &'a str)>,
    /// Everything after the first `;` (parameters, still raw).
    params_raw: &'a str,
}

impl<'a> ContentTypeRef<'a> {
    /// Parse a `Content-Type` header value. Never fails; garbage degrades
    /// to `text/plain` exactly like [`ContentType::parse`].
    pub fn parse(value: &'a str) -> ContentTypeRef<'a> {
        let (mime, params_raw) = match value.find(';') {
            Some(i) => (&value[..i], &value[i + 1..]),
            None => (value, ""),
        };
        let mime = mime.trim();
        let pair = match mime.split_once('/') {
            Some((t, s)) if !t.is_empty() && !s.is_empty() => Some((t.trim(), s.trim())),
            _ => None,
        };
        ContentTypeRef {
            mime: pair,
            params_raw,
        }
    }

    /// Top-level type, lowercased (borrows when already lowercase).
    pub fn top(&self) -> Cow<'a, str> {
        match self.mime {
            Some((t, _)) => lower_cow(t),
            None => Cow::Borrowed("text"),
        }
    }

    /// Subtype, lowercased (borrows when already lowercase).
    pub fn sub(&self) -> Cow<'a, str> {
        match self.mime {
            Some((_, s)) => lower_cow(s),
            None => Cow::Borrowed("plain"),
        }
    }

    /// The parsing-phase dispatch category, computed without materializing
    /// the lowercased strings.
    pub fn media_type(&self) -> MediaType {
        let (t, s) = self.mime.unwrap_or(("text", "plain"));
        let eq = |a: &str, b: &str| a.eq_ignore_ascii_case(b);
        if eq(t, "multipart") {
            MediaType::Multipart
        } else if eq(t, "text") {
            if eq(s, "html") {
                MediaType::Html
            } else {
                MediaType::Text
            }
        } else if eq(t, "image") {
            MediaType::Image
        } else if eq(t, "application") {
            if eq(s, "pdf") {
                MediaType::Pdf
            } else if eq(s, "zip") || eq(s, "x-zip-compressed") {
                MediaType::Zip
            } else if eq(s, "octet-stream") {
                MediaType::OctetStream
            } else {
                MediaType::Other
            }
        } else if eq(t, "message") && eq(s, "rfc822") {
            MediaType::Eml
        } else {
            MediaType::Other
        }
    }

    /// Parameter value for `name` (pass lowercase). Matches the owned
    /// parser's map semantics: keys compare case-insensitively, the last
    /// duplicate wins, values are trimmed and unquoted.
    pub fn param(&self, name: &str) -> Option<&'a str> {
        let mut found = None;
        for p in self.params_raw.split(';') {
            if let Some((k, v)) = p.split_once('=') {
                let key = k.trim();
                if !key.is_empty() && key.eq_ignore_ascii_case(name) {
                    found = Some(v.trim().trim_matches('"'));
                }
            }
        }
        found
    }

    /// The `boundary` parameter, required for multipart types.
    pub fn boundary(&self) -> Option<&'a str> {
        self.param("boundary")
    }

    /// Materialize the owned [`ContentType`] (the thin-wrapper path used by
    /// [`ContentType::parse`]).
    pub fn to_content_type(&self) -> ContentType {
        let mut params = BTreeMap::new();
        for p in self.params_raw.split(';') {
            if let Some((k, v)) = p.split_once('=') {
                let key = k.trim().to_ascii_lowercase();
                let val = v.trim().trim_matches('"').to_string();
                if !key.is_empty() {
                    params.insert(key, val);
                }
            }
        }
        let (top, sub) = match self.mime {
            Some((t, s)) => (t.to_ascii_lowercase(), s.to_ascii_lowercase()),
            None => ("text".to_string(), "plain".to_string()),
        };
        ContentType { top, sub, params }
    }
}

/// Split raw message text at the first blank line — whichever line-ending
/// convention produces the *earliest* split. Returns `(header_block,
/// body_text)` as borrowed spans.
pub fn split_header_body(raw: &str) -> (&str, &str) {
    let b = raw.as_bytes();
    let mut i = 0;
    while let Some(nl) = find_byte(b, b'\n', i) {
        // CRLF CRLF starting at nl-1, or LF LF starting at nl; the CRLF
        // form starts earlier when both anchor on this newline.
        if nl >= 1
            && b[nl - 1] == b'\r'
            && nl + 2 < b.len()
            && b[nl + 1] == b'\r'
            && b[nl + 2] == b'\n'
        {
            return (&raw[..nl - 1], &raw[nl + 3..]);
        }
        if nl + 1 < b.len() && b[nl + 1] == b'\n' {
            return (&raw[..nl], &raw[nl + 2..]);
        }
        i = nl + 1;
    }
    (raw, "")
}

/// Split a multipart body into part spans (offsets into `body`), appended
/// to `out`. Behaviour-identical to the original `split_multipart`,
/// without building the `--boundary` delimiter strings.
pub(crate) fn split_multipart_offsets(body: &str, boundary: &str, out: &mut Vec<(u32, u32)>) {
    let bytes = body.as_bytes();
    let bnd = boundary.as_bytes();
    let mut cursor = 0usize;
    let mut in_part: Option<usize> = None;
    while cursor <= body.len() {
        let line_end = find_byte(bytes, b'\n', cursor).unwrap_or(body.len());
        // RFC 2046 §5.1.1 allows transport padding (trailing whitespace)
        // after the boundary delimiter.
        let line = body[cursor..line_end]
            .trim_end_matches(['\r', ' ', '\t'])
            .as_bytes();
        let is_close = line.len() == bnd.len() + 4
            && line.starts_with(b"--")
            && line.ends_with(b"--")
            && &line[2..2 + bnd.len()] == bnd;
        let is_delim = is_close
            || (line.len() == bnd.len() + 2 && line.starts_with(b"--") && &line[2..] == bnd);
        if is_delim {
            if let Some(start) = in_part {
                // Part content ends just before this delimiter line
                // (excluding the CRLF that precedes it); an empty part puts
                // the delimiter immediately after the previous one, so the
                // backed-up end can precede start — clamp.
                let mut end = cursor;
                if end >= 1 && bytes[end - 1] == b'\n' {
                    end -= 1;
                    if end >= 1 && bytes[end - 1] == b'\r' {
                        end -= 1;
                    }
                }
                out.push((start as u32, end.max(start) as u32));
            }
            in_part = if is_close { None } else { Some(line_end + 1) };
            if is_close {
                break;
            }
        }
        if line_end == body.len() {
            break;
        }
        cursor = line_end + 1;
    }
    // Unterminated final part (missing close delimiter): be lenient.
    if let Some(start) = in_part {
        if start <= body.len() {
            let tail = body[start..].trim_end_matches(['\r', '\n']);
            out.push((start as u32, (start + tail.len()) as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::{HeaderMap, MimeEntity};

    /// Tiny deterministic generator for fuzz loops that must run without
    /// external crates.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[(self.next() as usize) % items.len()]
        }
    }

    fn header_soup(rng: &mut Lcg, len: usize) -> String {
        const ATOMS: &[&str] = &[
            "From",
            "Subject",
            "X-Loop",
            ":",
            " ",
            "\t",
            "\r\n",
            "\n",
            "\r",
            "value",
            "a",
            "B",
            "=?utf-8?",
            "@",
            "\u{e9}",
            "0x7f:\u{7f}",
            "",
            "Received",
        ];
        let mut out = String::new();
        for _ in 0..len {
            out.push_str(rng.pick(ATOMS));
        }
        out
    }

    #[test]
    fn find_byte_matches_naive_scan() {
        let mut rng = Lcg(7);
        for _ in 0..500 {
            let len = (rng.next() % 40) as usize;
            let data: Vec<u8> = (0..len).map(|_| (rng.next() % 7) as u8).collect();
            let needle = (rng.next() % 7) as u8;
            let from = (rng.next() as usize) % (len + 1);
            let naive = data[from..]
                .iter()
                .position(|&b| b == needle)
                .map(|p| p + from);
            assert_eq!(
                find_byte(&data, needle, from),
                naive,
                "{data:?} {needle} {from}"
            );
        }
    }

    #[test]
    fn line_cursor_matches_split_semantics() {
        let mut rng = Lcg(11);
        for _ in 0..400 {
            let n = (rng.next() % 12) as usize;
            let s = header_soup(&mut rng, n);
            let expected: Vec<&str> = s.split("\r\n").flat_map(|l| l.split('\n')).collect();
            let mut got = Vec::new();
            let mut cur = LineCursor::new(&s);
            while let Some((_, line)) = cur.next_line() {
                got.push(line);
            }
            assert_eq!(got, expected, "input {s:?}");
        }
    }

    #[test]
    fn header_iter_agrees_with_reference_parser() {
        let fixtures = [
            "From: a@x.example\r\nTo: b@y.example\r\nSubject: hi",
            "Subject: a very\r\n long subject\r\n\tfolded twice",
            "A: 1\n\n B continues A\nC: 2",
            "A: x\r\n \r\nB: y",
            "Subject : trailing-space-name",
            "Subject\t: tab-name",
            ": empty-name",
            " leading continuation",
            "no colon here",
            "A: x\r\nB!#$%&'*+-^_`|~: token-name",
            "",
            "A:",
            "A:   padded   \r\n\tcont   ",
        ];
        let mut rng = Lcg(23);
        let fuzz: Vec<String> = (0..600)
            .map(|_| {
                let n = (rng.next() % 20) as usize;
                header_soup(&mut rng, n)
            })
            .collect();
        for block in fixtures.iter().map(|s| s.to_string()).chain(fuzz) {
            let expected = reference::parse_header_block(&block);
            let got = HeaderMap::parse(&block);
            assert_eq!(got, expected, "block {block:?}");
        }
    }

    #[test]
    fn append_value_matches_value() {
        let block = "A: one\r\n two\r\n\tthree\r\nB: flat";
        let mut buf = String::new();
        for field in HeaderIter::new(block) {
            let field = field.unwrap();
            buf.clear();
            field.append_value(&mut buf);
            assert_eq!(buf, field.value());
        }
    }

    #[test]
    fn content_type_ref_agrees_with_reference_parser() {
        let fixtures = [
            "text/html",
            r#"multipart/mixed; boundary="--=_b0undary42""#,
            "  Application/PDF ;  Name=invoice.pdf ",
            "",
            "nonsense",
            "/half",
            "half/",
            "a/b; ; x=1; X=2; =skip;q=\"z\"",
            "TEXT/Plain; CHARSET=UTF-8",
            "image/png; name=\"a b\"; name=second",
            "application/x-zip-compressed",
            "message/RFC822",
            "text / html",
            "multipart/alternative;boundary=b;boundary=c",
        ];
        let mut rng = Lcg(41);
        const ATOMS: &[&str] = &[
            "text",
            "/",
            ";",
            "=",
            "\"",
            " ",
            "plain",
            "HTML",
            "boundary",
            "b-1",
            "multipart",
            "mixed",
            "charset",
            "Application",
            "octet-stream",
            "",
        ];
        let fuzz: Vec<String> = (0..600)
            .map(|_| {
                let n = (rng.next() % 10) as usize;
                (0..n).map(|_| rng.pick(ATOMS)).collect::<String>()
            })
            .collect();
        for value in fixtures.iter().map(|s| s.to_string()).chain(fuzz) {
            let expected = reference::parse_content_type(&value);
            let ct = ContentTypeRef::parse(&value);
            assert_eq!(ct.to_content_type(), expected, "value {value:?}");
            assert_eq!(ct.media_type(), expected.media_type(), "value {value:?}");
            assert_eq!(ct.top(), expected.top, "value {value:?}");
            assert_eq!(ct.sub(), expected.sub, "value {value:?}");
            assert_eq!(ct.boundary(), expected.boundary(), "value {value:?}");
        }
    }

    #[test]
    fn split_header_body_agrees_with_reference() {
        let mut rng = Lcg(57);
        for _ in 0..600 {
            let n = (rng.next() % 16) as usize;
            let s = header_soup(&mut rng, n);
            assert_eq!(
                split_header_body(&s),
                reference::split_header_body(&s),
                "input {s:?}"
            );
        }
    }

    #[test]
    fn split_multipart_offsets_agree_with_reference() {
        let boundaries = ["bb", "", "b-1", "--", "x y", "=_cbx_0000000000000000_0"];
        let mut rng = Lcg(91);
        const ATOMS: &[&str] = &[
            "--bb", "--bb--", "--", "part", "\r\n", "\n", " \t", "--b-1", "----", "content",
            "--bb \t", "", "--bbx",
        ];
        for _ in 0..800 {
            let n = (rng.next() % 14) as usize;
            let body: String = (0..n).map(|_| rng.pick(ATOMS)).collect();
            let boundary = rng.pick(&boundaries);
            let expected = reference::split_multipart(&body, boundary);
            let mut spans = Vec::new();
            split_multipart_offsets(&body, boundary, &mut spans);
            let got: Vec<&str> = spans
                .iter()
                .map(|&(s, e)| &body[s as usize..e as usize])
                .collect();
            assert_eq!(got, expected, "body {body:?} boundary {boundary:?}");
        }
    }

    #[test]
    fn owned_parse_agrees_with_reference_on_fuzzed_messages() {
        let mut rng = Lcg(133);
        const ATOMS: &[&str] = &[
            "Content-Type: multipart/mixed; boundary=\"bb\"\r\n",
            "Content-Type: text/plain\r\n",
            "Content-Type: multipart/mixed\r\n",
            "Content-Transfer-Encoding: base64\r\n",
            "Content-Transfer-Encoding: quoted-printable\r\n",
            "Subject: x\r\n",
            "\r\n",
            "\n",
            "--bb\r\n",
            "--bb--\r\n",
            "--bb \t\r\n",
            "Zm9v",
            "caf=C3=A9",
            "plain text",
            "--bbx inline",
            ": bad\r\n",
            " lead\r\n",
            "Bad Name: v\r\n",
        ];
        for _ in 0..800 {
            let n = (rng.next() % 12) as usize;
            let raw: String = (0..n).map(|_| rng.pick(ATOMS)).collect();
            let expected = reference::parse_message(&raw);
            let got = MimeEntity::parse(&raw);
            assert_eq!(got, expected, "raw {raw:?}");
        }
    }
}
