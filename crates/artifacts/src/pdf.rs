//! PDF-lite: a document format with the two URL carriers the pipeline cares
//! about (§IV-B): **embedded link annotations** (`/Annots` with `/URI`
//! actions) and **page text** (content-stream `Tj` operators), plus a page
//! rasterizer so pages can be screenshotted and pushed through the image
//! analysis path (OCR + QR detection) exactly as the paper describes.
//!
//! Serialization follows real PDF shapes — `%PDF-` header, numbered
//! `obj`/`endobj` bodies, `BT … (text) Tj … ET` content streams, link
//! annotation dictionaries, `trailer` — while the parser applies the
//! leniency real-world extractors need (object scanning, not xref chasing).

use crate::bitmap::{Bitmap, Rgb};
use std::fmt;

/// A positioned text run on a page (PDF-style origin: top-left here for
/// simplicity; units are pixels of the rasterized page).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdfText {
    /// Horizontal offset.
    pub x: usize,
    /// Vertical offset.
    pub y: usize,
    /// The run's characters.
    pub text: String,
}

/// A link annotation with a URI action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdfLink {
    /// Destination URI.
    pub uri: String,
}

/// One page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PdfPage {
    /// Text runs in paint order.
    pub texts: Vec<PdfText>,
    /// Link annotations.
    pub links: Vec<PdfLink>,
}

impl PdfPage {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a text run.
    pub fn text(&mut self, x: usize, y: usize, text: &str) -> &mut Self {
        self.texts.push(PdfText {
            x,
            y,
            text: text.to_string(),
        });
        self
    }

    /// Add a link annotation.
    pub fn link(&mut self, uri: &str) -> &mut Self {
        self.links.push(PdfLink {
            uri: uri.to_string(),
        });
        self
    }

    /// Rasterize to a page screenshot (white background, black text).
    pub fn rasterize(&self, width: usize, height: usize) -> Bitmap {
        let mut img = Bitmap::new(width, height, Rgb::WHITE);
        for t in &self.texts {
            img.draw_text(t.x, t.y, &t.text, 1, Rgb::BLACK);
        }
        img
    }
}

/// A multi-page document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PdfDocument {
    /// Pages in order.
    pub pages: Vec<PdfPage>,
}

/// Errors from parsing a PDF-lite byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdfError {
    /// Missing `%PDF-` header.
    BadHeader,
    /// A string literal was unterminated.
    UnterminatedString {
        /// Offset of the opening parenthesis.
        at: usize,
    },
}

impl fmt::Display for PdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdfError::BadHeader => write!(f, "missing %PDF- header"),
            PdfError::UnterminatedString { at } => {
                write!(f, "unterminated string literal at {at}")
            }
        }
    }
}

impl std::error::Error for PdfError {}

/// Escape a PDF string literal. Newlines are encoded as `\n` so that a
/// serialized literal never spans lines — the parser's line-oriented
/// structure markers (`/Type /Page`, `stream`, `endstream`) are then safe
/// from being matched inside string content.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('(', "\\(")
        .replace(')', "\\)")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Unescape a PDF string literal body.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some(n) => out.push(n),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

impl PdfDocument {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a page, returning `self` for chaining.
    pub fn page(&mut self, page: PdfPage) -> &mut Self {
        self.pages.push(page);
        self
    }

    /// All link URIs across pages, in order.
    pub fn link_uris(&self) -> Vec<&str> {
        self.pages
            .iter()
            .flat_map(|p| p.links.iter().map(|l| l.uri.as_str()))
            .collect()
    }

    /// All text content across pages joined with newlines.
    pub fn all_text(&self) -> String {
        let mut out = String::new();
        for p in &self.pages {
            for t in &p.texts {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&t.text);
            }
        }
        out
    }

    /// Serialize to PDF-lite bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::from("%PDF-1.4\n%\u{e2}\u{e3}\u{cf}\u{d3} cbx-lite\n");
        let mut obj_num = 1;
        out.push_str(&format!(
            "{obj_num} 0 obj\n<< /Type /Catalog /PageCount {} >>\nendobj\n",
            self.pages.len()
        ));
        for page in &self.pages {
            obj_num += 1;
            out.push_str(&format!("{obj_num} 0 obj\n<< /Type /Page /Annots [\n"));
            for l in &page.links {
                out.push_str(&format!(
                    "<< /Type /Annot /Subtype /Link /A << /S /URI /URI ({}) >> >>\n",
                    escape(&l.uri)
                ));
            }
            out.push_str("] >>\nstream\nBT /F1 10 Tf\n");
            for t in &page.texts {
                out.push_str(&format!("{} {} Td ({}) Tj\n", t.x, t.y, escape(&t.text)));
            }
            out.push_str("ET\nendstream\nendobj\n");
        }
        out.push_str("trailer\n<< /Size ");
        out.push_str(&format!("{obj_num} >>\n%%EOF\n"));
        out.into_bytes()
    }

    /// Parse PDF-lite bytes back into a document.
    ///
    /// # Errors
    ///
    /// Returns [`PdfError`] on a missing header or malformed string literal.
    pub fn parse(data: &[u8]) -> Result<PdfDocument, PdfError> {
        let text = String::from_utf8_lossy(data);
        if !text.starts_with("%PDF-") {
            return Err(PdfError::BadHeader);
        }
        let mut doc = PdfDocument::new();
        // Pages are delimited by "obj\n<< /Type /Page" object headers.
        // String literals cannot contain raw newlines (escape() encodes
        // them), so this line-anchored marker never matches inside text.
        for chunk in text.split("obj\n<< /Type /Page").skip(1) {
            let mut page = PdfPage::new();
            // Link annotations: /URI (...)
            let mut rest = chunk;
            while let Some(pos) = rest.find("/URI (") {
                let body_start = pos + "/URI (".len();
                let body = read_string_literal(&rest[body_start..])
                    .ok_or(PdfError::UnterminatedString { at: body_start })?;
                page.link(&unescape(body));
                rest = &rest[body_start + body.len()..];
            }
            // Text ops: "x y Td (text) Tj". Stream boundaries are likewise
            // line-anchored.
            let stream = chunk
                .split("\nstream\n")
                .nth(1)
                .and_then(|s| s.split("\nendstream").next())
                .unwrap_or("");
            for line in stream.lines() {
                let line = line.trim();
                if !line.ends_with("Tj") {
                    continue;
                }
                let mut words = line.split_whitespace();
                let (Some(xs), Some(ys), Some(td)) = (words.next(), words.next(), words.next())
                else {
                    continue;
                };
                if td != "Td" {
                    continue;
                }
                let (Ok(x), Ok(y)) = (xs.parse::<usize>(), ys.parse::<usize>()) else {
                    continue;
                };
                if let Some(open) = line.find('(') {
                    let body = read_string_literal(&line[open + 1..])
                        .ok_or(PdfError::UnterminatedString { at: open })?;
                    page.text(x, y, &unescape(body));
                }
            }
            doc.page(page);
        }
        Ok(doc)
    }
}

/// Read a PDF string literal body up to (excluding) its closing unescaped
/// parenthesis. Returns `None` if unterminated.
fn read_string_literal(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b')' => return Some(&s[..i]),
            _ => i += 1,
        }
    }
    None
}

/// Suggested rasterization size for page screenshots (wide enough for a long
/// URL at scale 1).
pub const PAGE_WIDTH: usize = 640;
/// Suggested page height.
pub const PAGE_HEIGHT: usize = 220;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::font::{ADVANCE, GLYPH_H};
    use crate::ocr;

    #[test]
    fn round_trip_links_and_text() {
        let mut doc = PdfDocument::new();
        let mut p1 = PdfPage::new();
        p1.text(10, 10, "INVOICE OVERDUE")
            .link("https://evil.example/pay?id=42");
        let mut p2 = PdfPage::new();
        p2.text(10, 10, "PAGE TWO").link("https://evil.example/alt");
        doc.page(p1).page(p2);
        let parsed = PdfDocument::parse(&doc.to_bytes()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.link_uris(),
            vec!["https://evil.example/pay?id=42", "https://evil.example/alt"]
        );
    }

    #[test]
    fn header_is_pdf_magic() {
        let doc = PdfDocument::new();
        let bytes = doc.to_bytes();
        assert!(bytes.starts_with(b"%PDF-"));
        assert_eq!(crate::magic::sniff(&bytes), crate::magic::FileKind::Pdf);
    }

    #[test]
    fn escaped_parentheses_survive() {
        let mut doc = PdfDocument::new();
        let mut p = PdfPage::new();
        p.text(5, 5, "balance (overdue)")
            .link("https://evil.example/a(b)c");
        doc.page(p);
        let parsed = PdfDocument::parse(&doc.to_bytes()).unwrap();
        assert_eq!(parsed.pages[0].texts[0].text, "balance (overdue)");
        assert_eq!(parsed.pages[0].links[0].uri, "https://evil.example/a(b)c");
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(PdfDocument::parse(b"not a pdf"), Err(PdfError::BadHeader));
    }

    #[test]
    fn rasterized_page_is_ocr_readable() {
        // The paper's second PDF approach: screenshot each page, then run
        // the image pipeline over it.
        let mut p = PdfPage::new();
        p.text(4, 8, "HTTPS://EVIL.EXAMPLE/QR");
        let img = p.rasterize(PAGE_WIDTH, 60);
        let text = ocr::recognize_text(&img, 1);
        assert!(text.contains("HTTPS://EVIL.EXAMPLE/QR"), "{text}");
    }

    #[test]
    fn all_text_joins_pages() {
        let mut doc = PdfDocument::new();
        let mut p1 = PdfPage::new();
        p1.text(0, 0, "A");
        let mut p2 = PdfPage::new();
        p2.text(0, 0, "B");
        doc.page(p1).page(p2);
        assert_eq!(doc.all_text(), "A\nB");
    }

    #[test]
    fn empty_document_round_trips() {
        let doc = PdfDocument::new();
        let parsed = PdfDocument::parse(&doc.to_bytes()).unwrap();
        assert!(parsed.pages.is_empty());
        assert!(parsed.link_uris().is_empty());
    }

    #[test]
    fn text_size_constants_fit_font() {
        // One glyph row must fit within the suggested page height.
        const { assert!(GLYPH_H < PAGE_HEIGHT) };
        const { assert!(ADVANCE * 40 < PAGE_WIDTH) };
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;

    #[test]
    fn literal_containing_structure_markers_round_trips() {
        let mut doc = PdfDocument::new();
        let mut page = PdfPage::new();
        page.text(4, 4, "about the /Type /Page object and the stream keyword")
            .text(4, 20, "also endstream and obj mentions")
            .link("https://x.example/stream");
        doc.page(page);
        let parsed = PdfDocument::parse(&doc.to_bytes()).unwrap();
        assert_eq!(parsed.pages.len(), 1);
        assert_eq!(parsed, doc);
    }

    #[test]
    fn literal_with_newlines_round_trips() {
        let mut doc = PdfDocument::new();
        let mut page = PdfPage::new();
        page.text(4, 4, "line one\nline two\r\nline three");
        doc.page(page);
        let parsed = PdfDocument::parse(&doc.to_bytes()).unwrap();
        assert_eq!(
            parsed.pages[0].texts[0].text,
            "line one\nline two\r\nline three"
        );
    }
}
