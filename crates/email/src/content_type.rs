//! `Content-Type` header parsing (RFC 2045 §5).
//!
//! CrawlerBox dispatches each MIME part on its media type: "the most
//! prevalent content types are: HTML, images, Octet Stream files, EML, text,
//! PDF, and ZIP files" (§IV-B). [`MediaType`] enumerates exactly those
//! dispatch targets; [`ContentType`] carries the raw type plus parameters
//! (`boundary`, `charset`, `name`).

use std::collections::BTreeMap;
use std::fmt;

/// The parsing-phase dispatch category of a MIME part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaType {
    /// `text/html` — rendered and dynamically analyzed.
    Html,
    /// `text/plain` and other `text/*` — statically scanned for URLs.
    Text,
    /// `image/*` — scanned for URLs via OCR and for QR codes.
    Image,
    /// `application/pdf` — embedded link + per-page screenshot analysis.
    Pdf,
    /// `application/zip` — unpacked, members analyzed recursively.
    Zip,
    /// `message/rfc822` — nested email, processed recursively.
    Eml,
    /// `application/octet-stream` — sniffed by magic numbers.
    OctetStream,
    /// `multipart/*` — structural container.
    Multipart,
    /// Anything else.
    Other,
}

/// A parsed `Content-Type` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentType {
    /// Top-level type, lowercased (e.g. `text`).
    pub top: String,
    /// Subtype, lowercased (e.g. `html`).
    pub sub: String,
    /// Parameters with lowercased names; values unquoted.
    pub params: BTreeMap<String, String>,
}

impl ContentType {
    /// Parse a `Content-Type` header value such as
    /// `multipart/mixed; boundary="xyz"`.
    ///
    /// Unparseable input degrades to `text/plain`, matching the RFC 2045
    /// default and the leniency of real mail clients.
    ///
    /// Thin materializing wrapper over
    /// [`crate::view::ContentTypeRef::parse`]; call sites that only need
    /// the media type or one parameter can use the borrowed ref directly
    /// and skip building the parameter map.
    pub fn parse(value: &str) -> ContentType {
        crate::view::ContentTypeRef::parse(value).to_content_type()
    }

    /// The default content type mandated by RFC 2045: `text/plain`.
    pub fn text_plain() -> ContentType {
        ContentType::parse("text/plain; charset=us-ascii")
    }

    /// The `boundary` parameter, required for multipart types.
    pub fn boundary(&self) -> Option<&str> {
        self.params.get("boundary").map(String::as_str)
    }

    /// The `charset` parameter, if present.
    pub fn charset(&self) -> Option<&str> {
        self.params.get("charset").map(String::as_str)
    }

    /// The full `type/subtype` string.
    pub fn mime(&self) -> String {
        format!("{}/{}", self.top, self.sub)
    }

    /// Map to the parsing-phase dispatch category.
    pub fn media_type(&self) -> MediaType {
        match (self.top.as_str(), self.sub.as_str()) {
            ("multipart", _) => MediaType::Multipart,
            ("text", "html") => MediaType::Html,
            ("text", _) => MediaType::Text,
            ("image", _) => MediaType::Image,
            ("application", "pdf") => MediaType::Pdf,
            ("application", "zip") | ("application", "x-zip-compressed") => MediaType::Zip,
            ("message", "rfc822") => MediaType::Eml,
            ("application", "octet-stream") => MediaType::OctetStream,
            _ => MediaType::Other,
        }
    }
}

impl fmt::Display for ContentType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.top, self.sub)?;
        for (k, v) in &self.params {
            if v.contains(' ') || v.contains(';') {
                write!(f, "; {k}=\"{v}\"")?;
            } else {
                write!(f, "; {k}={v}")?;
            }
        }
        Ok(())
    }
}

impl Default for ContentType {
    fn default() -> Self {
        ContentType::text_plain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_type() {
        let ct = ContentType::parse("text/html");
        assert_eq!(ct.top, "text");
        assert_eq!(ct.sub, "html");
        assert_eq!(ct.media_type(), MediaType::Html);
    }

    #[test]
    fn parses_boundary_with_quotes() {
        let ct = ContentType::parse(r#"multipart/mixed; boundary="--=_b0undary42""#);
        assert_eq!(ct.media_type(), MediaType::Multipart);
        assert_eq!(ct.boundary(), Some("--=_b0undary42"));
    }

    #[test]
    fn case_insensitive_and_whitespace_tolerant() {
        let ct = ContentType::parse("  Application/PDF ;  Name=invoice.pdf ");
        assert_eq!(ct.media_type(), MediaType::Pdf);
        assert_eq!(
            ct.params.get("name").map(String::as_str),
            Some("invoice.pdf")
        );
    }

    #[test]
    fn garbage_defaults_to_text_plain() {
        assert_eq!(ContentType::parse("").media_type(), MediaType::Text);
        assert_eq!(ContentType::parse("nonsense").mime(), "text/plain");
        assert_eq!(ContentType::parse("/half").mime(), "text/plain");
    }

    #[test]
    fn dispatch_covers_paper_types() {
        for (raw, want) in [
            ("text/plain", MediaType::Text),
            ("text/rtf", MediaType::Text),
            ("image/png", MediaType::Image),
            ("application/zip", MediaType::Zip),
            ("application/x-zip-compressed", MediaType::Zip),
            ("message/rfc822", MediaType::Eml),
            ("application/octet-stream", MediaType::OctetStream),
            ("application/vnd.unknown", MediaType::Other),
        ] {
            assert_eq!(ContentType::parse(raw).media_type(), want, "{raw}");
        }
    }

    #[test]
    fn display_round_trips() {
        let ct = ContentType::parse(r#"multipart/alternative; boundary="a b"; charset=utf-8"#);
        let shown = ct.to_string();
        let back = ContentType::parse(&shown);
        assert_eq!(ct, back);
    }

    #[test]
    fn charset_accessor() {
        let ct = ContentType::parse("text/plain; charset=UTF-8");
        assert_eq!(ct.charset(), Some("UTF-8"));
    }
}
