//! The MIME entity tree: recursive parse and synthesis.
//!
//! A [`MimeEntity`] is a header block plus a body that is either a leaf
//! (decoded bytes) or a list of child entities (multipart). Parsing handles
//! boundary delimiters, content-transfer-encodings, and nested
//! `message/rfc822` parts — everything CrawlerBox's §IV-B recursion needs.
//! [`MessageBuilder`] produces wire-format messages for the corpus
//! generator.

use crate::codec;
use crate::content_type::{ContentType, MediaType};
use crate::header::{HeaderMap, ParseHeaderError};
use crate::view;
use std::fmt;

/// Maximum multipart nesting the parser will follow. Attackers nest EMLs in
/// EMLs; real parsers bound the recursion to avoid resource-exhaustion
/// evasion, and so do we.
pub const MAX_DEPTH: usize = 16;

/// The body of a MIME entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MimeBody {
    /// Leaf content, already transfer-decoded.
    Leaf(Vec<u8>),
    /// Multipart children in wire order.
    Multipart(Vec<MimeEntity>),
}

/// One node of the MIME tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MimeEntity {
    /// The entity's header block.
    pub headers: HeaderMap,
    /// Its (decoded) body.
    pub body: MimeBody,
}

/// Errors from parsing a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseMessageError {
    /// The header block was malformed.
    Header(ParseHeaderError),
    /// A multipart type was declared without a `boundary` parameter.
    MissingBoundary,
    /// Multipart nesting exceeded [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseMessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseMessageError::Header(e) => write!(f, "bad header block: {e}"),
            ParseMessageError::MissingBoundary => {
                write!(f, "multipart content-type without boundary")
            }
            ParseMessageError::TooDeep => write!(f, "multipart nesting exceeds {MAX_DEPTH}"),
        }
    }
}

impl std::error::Error for ParseMessageError {}

impl From<ParseHeaderError> for ParseMessageError {
    fn from(e: ParseHeaderError) -> Self {
        ParseMessageError::Header(e)
    }
}

impl MimeEntity {
    /// Parse a wire-format message.
    ///
    /// # Errors
    ///
    /// Returns [`ParseMessageError`] on malformed headers, a multipart
    /// without boundary, or nesting beyond [`MAX_DEPTH`].
    pub fn parse(raw: &str) -> Result<MimeEntity, ParseMessageError> {
        Self::parse_at_depth(raw, 0)
    }

    fn parse_at_depth(raw: &str, depth: usize) -> Result<MimeEntity, ParseMessageError> {
        if depth > MAX_DEPTH {
            return Err(ParseMessageError::TooDeep);
        }
        let (header_block, body_text) = view::split_header_body(raw);
        let headers = HeaderMap::parse(header_block)?;
        // The borrowed content-type ref answers "is this multipart, and
        // with what boundary" without building the parameter map the owned
        // parse would allocate per entity.
        let ct = headers.get("Content-Type").map(view::ContentTypeRef::parse);

        let body = match ct {
            Some(ct) if ct.media_type() == MediaType::Multipart => {
                let boundary = ct.boundary().ok_or(ParseMessageError::MissingBoundary)?;
                let mut spans = Vec::new();
                view::split_multipart_offsets(body_text, boundary, &mut spans);
                let mut children = Vec::with_capacity(spans.len());
                for (s, e) in spans {
                    children.push(Self::parse_at_depth(
                        &body_text[s as usize..e as usize],
                        depth + 1,
                    )?);
                }
                MimeBody::Multipart(children)
            }
            _ => {
                let decoded = decode_transfer(
                    body_text,
                    headers.get("Content-Transfer-Encoding").unwrap_or("7bit"),
                );
                MimeBody::Leaf(decoded)
            }
        };
        Ok(MimeEntity { headers, body })
    }

    /// The entity's parsed content type ([`ContentType::text_plain`] when
    /// the header is absent).
    pub fn content_type(&self) -> ContentType {
        self.headers
            .get("Content-Type")
            .map(ContentType::parse)
            .unwrap_or_default()
    }

    /// First value of the named header.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// Leaf body decoded as UTF-8 (lossy), or `None` for multipart bodies.
    pub fn body_text(&self) -> Option<String> {
        match &self.body {
            MimeBody::Leaf(bytes) => Some(String::from_utf8_lossy(bytes).into_owned()),
            MimeBody::Multipart(_) => None,
        }
    }

    /// Leaf body bytes, or `None` for multipart bodies.
    pub fn body_bytes(&self) -> Option<&[u8]> {
        match &self.body {
            MimeBody::Leaf(bytes) => Some(bytes),
            MimeBody::Multipart(_) => None,
        }
    }

    /// The declared attachment filename (Content-Disposition `filename` or
    /// Content-Type `name` parameter).
    pub fn filename(&self) -> Option<String> {
        if let Some(cd) = self.headers.get("Content-Disposition") {
            for param in cd.split(';').skip(1) {
                if let Some((k, v)) = param.split_once('=') {
                    if k.trim().eq_ignore_ascii_case("filename") {
                        return Some(v.trim().trim_matches('"').to_string());
                    }
                }
            }
        }
        self.content_type().params.get("name").cloned()
    }

    /// Depth-first iterator over this entity and all descendants.
    pub fn walk(&self) -> Vec<&MimeEntity> {
        let mut out = vec![self];
        if let MimeBody::Multipart(children) = &self.body {
            for c in children {
                out.extend(c.walk());
            }
        }
        out
    }

    /// All leaf parts (the units the parsing phase dispatches on).
    pub fn leaves(&self) -> Vec<&MimeEntity> {
        self.walk()
            .into_iter()
            .filter(|e| matches!(e.body, MimeBody::Leaf(_)))
            .collect()
    }
}

/// Decode a body per its `Content-Transfer-Encoding`.
fn decode_transfer(body: &str, encoding: &str) -> Vec<u8> {
    match encoding.trim().to_ascii_lowercase().as_str() {
        "base64" => codec::base64_decode(body).unwrap_or_else(|_| body.as_bytes().to_vec()),
        "quoted-printable" => codec::quoted_printable_decode(body),
        _ => body.as_bytes().to_vec(),
    }
}

/// An attachment queued on a [`MessageBuilder`].
#[derive(Debug, Clone)]
struct Attachment {
    filename: String,
    content_type: String,
    data: Vec<u8>,
}

/// Builds wire-format messages.
///
/// Non-consuming builder per Rust API guidelines: configuration methods take
/// `&mut self`, the terminal [`build`](MessageBuilder::build) takes `&self`.
#[derive(Debug, Clone, Default)]
pub struct MessageBuilder {
    from: String,
    to: String,
    subject: String,
    date: Option<String>,
    extra_headers: Vec<(String, String)>,
    text_body: Option<String>,
    html_body: Option<String>,
    attachments: Vec<Attachment>,
    boundary_seed: u64,
}

impl MessageBuilder {
    /// A builder with no fields set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the `From:` header.
    pub fn from(&mut self, addr: &str) -> &mut Self {
        self.from = addr.to_string();
        self
    }

    /// Set the `To:` header.
    pub fn to(&mut self, addr: &str) -> &mut Self {
        self.to = addr.to_string();
        self
    }

    /// Set the `Subject:` header.
    pub fn subject(&mut self, s: &str) -> &mut Self {
        self.subject = s.to_string();
        self
    }

    /// Set the `Date:` header (any preformatted string).
    pub fn date(&mut self, d: &str) -> &mut Self {
        self.date = Some(d.to_string());
        self
    }

    /// Append an arbitrary header.
    pub fn header(&mut self, name: &str, value: &str) -> &mut Self {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Set a plain-text body part.
    pub fn text_body(&mut self, text: &str) -> &mut Self {
        self.text_body = Some(text.to_string());
        self
    }

    /// Set an HTML body part.
    pub fn html_body(&mut self, html: &str) -> &mut Self {
        self.html_body = Some(html.to_string());
        self
    }

    /// Attach a file with the given content type; it will be base64-encoded.
    pub fn attach(&mut self, filename: &str, content_type: &str, data: &[u8]) -> &mut Self {
        self.attachments.push(Attachment {
            filename: filename.to_string(),
            content_type: content_type.to_string(),
            data: data.to_vec(),
        });
        self
    }

    /// Seed for deterministic boundary strings (corpus generation must be
    /// reproducible).
    pub fn boundary_seed(&mut self, seed: u64) -> &mut Self {
        self.boundary_seed = seed;
        self
    }

    fn boundary(&self, level: u32) -> String {
        format!("=_cbx_{:016x}_{level}", self.boundary_seed ^ 0x5bd1_e995)
    }

    /// Serialize to wire format (CRLF line endings).
    pub fn build(&self) -> String {
        let mut out = String::new();
        let push_header = |name: &str, value: &str, out: &mut String| {
            if !value.is_empty() {
                out.push_str(name);
                out.push_str(": ");
                out.push_str(value);
                out.push_str("\r\n");
            }
        };
        push_header("From", &self.from, &mut out);
        push_header("To", &self.to, &mut out);
        push_header("Subject", &self.subject, &mut out);
        if let Some(d) = &self.date {
            push_header("Date", d, &mut out);
        }
        push_header("MIME-Version", "1.0", &mut out);
        for (n, v) in &self.extra_headers {
            push_header(n, v, &mut out);
        }

        let body_parts = self.body_parts();
        match body_parts.len() {
            0 => {
                out.push_str("Content-Type: text/plain; charset=utf-8\r\n\r\n");
            }
            1 => {
                out.push_str(&body_parts[0]);
            }
            _ => {
                let b = self.boundary(0);
                out.push_str(&format!(
                    "Content-Type: multipart/mixed; boundary=\"{b}\"\r\n\r\n"
                ));
                for part in &body_parts {
                    out.push_str(&format!("--{b}\r\n"));
                    out.push_str(part);
                    out.push_str("\r\n");
                }
                out.push_str(&format!("--{b}--\r\n"));
            }
        }
        out
    }

    /// Render each body part (headers + content) as standalone text.
    fn body_parts(&self) -> Vec<String> {
        let mut parts = Vec::new();
        match (&self.text_body, &self.html_body) {
            (Some(t), Some(h)) => {
                // alternative container as a single "part"
                let b = self.boundary(1);
                let mut s =
                    format!("Content-Type: multipart/alternative; boundary=\"{b}\"\r\n\r\n");
                s.push_str(&format!(
                    "--{b}\r\nContent-Type: text/plain; charset=utf-8\r\n\r\n{t}\r\n"
                ));
                s.push_str(&format!(
                    "--{b}\r\nContent-Type: text/html; charset=utf-8\r\n\r\n{h}\r\n"
                ));
                s.push_str(&format!("--{b}--\r\n"));
                parts.push(s);
            }
            (Some(t), None) => parts.push(format!(
                "Content-Type: text/plain; charset=utf-8\r\n\r\n{t}"
            )),
            (None, Some(h)) => {
                parts.push(format!("Content-Type: text/html; charset=utf-8\r\n\r\n{h}"))
            }
            (None, None) => {}
        }
        for a in &self.attachments {
            parts.push(format!(
                "Content-Type: {}; name=\"{}\"\r\nContent-Transfer-Encoding: base64\r\nContent-Disposition: attachment; filename=\"{}\"\r\n\r\n{}",
                a.content_type,
                a.filename,
                a.filename,
                codec::base64_encode_wrapped(&a.data)
            ));
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_text_message_round_trips() {
        let raw = MessageBuilder::new()
            .from("a@x.example")
            .to("b@y.example")
            .subject("hello")
            .text_body("line one\r\nline two")
            .build();
        let m = MimeEntity::parse(&raw).unwrap();
        assert_eq!(m.header("From"), Some("a@x.example"));
        assert_eq!(m.body_text().unwrap(), "line one\r\nline two");
        assert_eq!(m.content_type().mime(), "text/plain");
    }

    #[test]
    fn alternative_plus_attachment_structure() {
        let raw = MessageBuilder::new()
            .from("a@x.example")
            .subject("invoice")
            .text_body("see attachment")
            .html_body("<p>see attachment</p>")
            .attach("invoice.pdf", "application/pdf", b"%PDF-1.4 fake")
            .build();
        let m = MimeEntity::parse(&raw).unwrap();
        assert_eq!(m.content_type().media_type(), MediaType::Multipart);
        let leaves = m.leaves();
        assert_eq!(leaves.len(), 3);
        let pdf = leaves
            .iter()
            .find(|e| e.content_type().media_type() == MediaType::Pdf)
            .expect("pdf leaf");
        assert_eq!(pdf.body_bytes().unwrap(), b"%PDF-1.4 fake");
        assert_eq!(pdf.filename().as_deref(), Some("invoice.pdf"));
    }

    #[test]
    fn base64_attachment_binary_safe() {
        let data: Vec<u8> = (0..=255).collect();
        let raw = MessageBuilder::new()
            .subject("bin")
            .attach("blob.bin", "application/octet-stream", &data)
            .build();
        let m = MimeEntity::parse(&raw).unwrap();
        let leaf = &m.leaves()[0];
        assert_eq!(leaf.body_bytes().unwrap(), &data[..]);
        assert_eq!(leaf.content_type().media_type(), MediaType::OctetStream);
    }

    #[test]
    fn nested_eml_parses_recursively() {
        let inner = MessageBuilder::new()
            .from("inner@x.example")
            .subject("inner message")
            .text_body("click https://evil.example/token")
            .build();
        let raw = MessageBuilder::new()
            .from("outer@y.example")
            .subject("fwd")
            .text_body("see attached mail")
            .attach("fwd.eml", "message/rfc822", inner.as_bytes())
            .build();
        let m = MimeEntity::parse(&raw).unwrap();
        let eml_leaf = m
            .leaves()
            .into_iter()
            .find(|e| e.content_type().media_type() == MediaType::Eml)
            .unwrap();
        // the EML leaf's bytes are themselves a parseable message
        let inner_parsed =
            MimeEntity::parse(std::str::from_utf8(eml_leaf.body_bytes().unwrap()).unwrap())
                .unwrap();
        assert_eq!(inner_parsed.header("Subject"), Some("inner message"));
        assert!(inner_parsed.body_text().unwrap().contains("evil.example"));
    }

    #[test]
    fn quoted_printable_body_decodes() {
        let raw = "From: a@x.example\r\nContent-Type: text/plain\r\nContent-Transfer-Encoding: quoted-printable\r\n\r\ncaf=C3=A9 =3D nice";
        let m = MimeEntity::parse(raw).unwrap();
        assert_eq!(m.body_text().unwrap(), "caf\u{e9} = nice");
    }

    #[test]
    fn multipart_without_boundary_is_error() {
        let raw = "Content-Type: multipart/mixed\r\n\r\nbody";
        assert_eq!(
            MimeEntity::parse(raw),
            Err(ParseMessageError::MissingBoundary)
        );
    }

    #[test]
    fn depth_bomb_is_rejected() {
        // Build MAX_DEPTH+2 nested multiparts.
        let mut body = String::from("Content-Type: text/plain\r\n\r\nleaf");
        for i in 0..(MAX_DEPTH + 2) {
            body = format!(
                "Content-Type: multipart/mixed; boundary=\"b{i}\"\r\n\r\n--b{i}\r\n{body}\r\n--b{i}--\r\n"
            );
        }
        assert_eq!(MimeEntity::parse(&body), Err(ParseMessageError::TooDeep));
    }

    #[test]
    fn unterminated_multipart_is_lenient() {
        let raw = "Content-Type: multipart/mixed; boundary=\"bb\"\r\n\r\n--bb\r\nContent-Type: text/plain\r\n\r\nthe only part";
        let m = MimeEntity::parse(raw).unwrap();
        assert_eq!(m.leaves().len(), 1);
        assert_eq!(m.leaves()[0].body_text().unwrap(), "the only part");
    }

    #[test]
    fn boundary_like_text_inside_part_is_not_a_delimiter() {
        let raw = "Content-Type: multipart/mixed; boundary=\"bb\"\r\n\r\n--bb\r\nContent-Type: text/plain\r\n\r\ntext mentioning --bbx inline\r\n--bb--\r\n";
        let m = MimeEntity::parse(raw).unwrap();
        assert_eq!(m.leaves().len(), 1);
        assert!(m.leaves()[0].body_text().unwrap().contains("--bbx"));
    }

    #[test]
    fn walk_visits_all_nodes() {
        let raw = MessageBuilder::new()
            .text_body("t")
            .html_body("<p>h</p>")
            .attach("a.zip", "application/zip", b"PK\x03\x04")
            .build();
        let m = MimeEntity::parse(&raw).unwrap();
        // root (mixed) + alternative + text + html + zip = 5
        assert_eq!(m.walk().len(), 5);
        assert_eq!(m.leaves().len(), 3);
    }

    #[test]
    fn empty_message_defaults() {
        let raw = MessageBuilder::new().build();
        let m = MimeEntity::parse(&raw).unwrap();
        assert_eq!(m.content_type().mime(), "text/plain");
        assert_eq!(m.body_text().unwrap(), "");
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;

    #[test]
    fn empty_multipart_part_does_not_panic() {
        let raw = "Content-Type: multipart/mixed; boundary=\"bb\"\r\n\r\n--bb\r\n--bb--\r\n";
        let m = MimeEntity::parse(raw).unwrap();
        // the degenerate part parses as an empty leaf
        assert!(m.leaves().len() <= 1);
    }

    #[test]
    fn lf_message_with_crlf_blank_line_in_body() {
        let raw = "From: a@x.example\nContent-Type: text/plain\n\nfirst line\r\n\r\nsecond para";
        let m = MimeEntity::parse(raw).unwrap();
        assert_eq!(m.header("From"), Some("a@x.example"));
        assert!(m.body_text().unwrap().contains("second para"));
    }

    #[test]
    fn boundary_transport_padding_accepted() {
        // RFC 2046 §5.1.1: delimiter lines may carry trailing whitespace.
        let raw = "Content-Type: multipart/mixed; boundary=\"bb\"\r\n\r\n--bb \t\r\nContent-Type: text/plain\r\n\r\nthe part\r\n--bb-- \r\n";
        let m = MimeEntity::parse(raw).unwrap();
        assert_eq!(m.leaves().len(), 1);
        assert_eq!(m.leaves()[0].body_text().unwrap(), "the part");
    }
}
