//! The parsing phase (§IV-B): recursive resource extraction from MIME
//! messages.
//!
//! > "URLs are statically extracted from text-based formats. Inline and
//! > attached images are scanned for the presence of URLs (using … OCR) and
//! > QR codes. For PDF files … (1) extracting embedded and text-based URLs,
//! > and (2) taking a screenshot of each page … Octet Stream files are
//! > analyzed according to their file signature … ZIP files are unpacked …
//! > EML files are processed recursively."

use cb_artifacts::magic::{self, FileKind};
use cb_artifacts::{fingerprint, qrimage, Bitmap, PdfDocument, ZipArchive};
use cb_email::{MediaType, MimeEntity};
use cb_json::{Deserialize, Serialize};
use cb_qr::extract::{extract_url_anchored, extract_url_lenient, extract_url_strict};
use cb_telemetry::CounterHandle;
use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

/// Recursion ceiling for nested containers (EML-in-ZIP-in-EML bombs).
const MAX_DEPTH: usize = 6;

/// Where a resource was found — the provenance the analysis phase keys on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExtractionSource {
    /// Plain text body or text attachment.
    BodyText,
    /// `href`/`src` in an HTML part.
    HtmlHref,
    /// Inline script in an HTML part assigned `location.href`.
    HtmlScriptRedirect,
    /// QR code in an image. `faulty` means the payload failed strict URL
    /// validation and only lenient (mobile-camera) extraction recovered it
    /// — the in-the-wild filter-bypass bug (§V-C1).
    QrCode {
        /// Strict extraction failed; lenient succeeded.
        faulty: bool,
    },
    /// OCR over an image.
    ImageOcr,
    /// PDF link annotation.
    PdfAnnotation,
    /// PDF page text (direct or via the page-screenshot OCR path).
    PdfText,
    /// Found inside a ZIP member (wrapping the member's own source).
    ZipMember,
    /// Found inside a nested EML.
    NestedEml,
    /// The landing URL of an HTML *attachment* that redirects when opened
    /// locally (the §V-B technique).
    HtmlAttachment,
}

impl ExtractionSource {
    /// Short stable label used by the `extract.kind` trace instants.
    pub fn label(&self) -> &'static str {
        match self {
            ExtractionSource::BodyText => "body-text",
            ExtractionSource::HtmlHref => "html-href",
            ExtractionSource::HtmlScriptRedirect => "html-script-redirect",
            ExtractionSource::QrCode { faulty: false } => "qr",
            ExtractionSource::QrCode { faulty: true } => "qr-faulty",
            ExtractionSource::ImageOcr => "image-ocr",
            ExtractionSource::PdfAnnotation => "pdf-annotation",
            ExtractionSource::PdfText => "pdf-text",
            ExtractionSource::ZipMember => "zip-member",
            ExtractionSource::NestedEml => "nested-eml",
            ExtractionSource::HtmlAttachment => "html-attachment",
        }
    }
}

/// One extracted web resource.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractedResource {
    /// The URL.
    pub url: String,
    /// Provenance.
    pub source: ExtractionSource,
}

/// The decode result of one image or PDF before container provenance is
/// applied: `(url, base kind)`. QR kinds survive any container unchanged
/// (the §V-C1 faulty flag must not be masked by nesting), the others are
/// wrapped per call-site — which is what makes these values safe to share
/// between a bare attachment and the same bytes inside a ZIP or EML.
type BaseResource = (String, BaseKind);

/// Container-independent provenance of a decoded resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BaseKind {
    /// Clean QR payload (strict URL extraction succeeded).
    QrClean,
    /// Faulty QR payload (only lenient extraction recovered it).
    QrFaulty,
    /// OCR text over an image.
    ImageOcr,
    /// PDF `/Annots` URI link.
    PdfAnnotation,
    /// PDF text (direct, or via the page-screenshot OCR path).
    PdfText,
}

/// Content-hash memoization of artifact decoding: QR detection, OCR and
/// page rasterization over identical bytes happen once, then replay from
/// the cache. Keys are 128-bit FNV content fingerprints; values are
/// [`BaseResource`] lists — pure functions of the bytes alone, never of
/// container, attempt or fault state, so cached and cache-free extraction
/// are bit-identical (the purity invariant of DESIGN.md §8).
#[derive(Debug, Default)]
pub struct ArtifactMemo {
    images: RwLock<HashMap<u128, Vec<BaseResource>>>,
    pdfs: RwLock<HashMap<u128, Vec<BaseResource>>>,
    hits: CounterHandle,
    misses: CounterHandle,
}

impl ArtifactMemo {
    /// An empty memo with standalone hit/miss counters.
    pub fn new() -> ArtifactMemo {
        ArtifactMemo::default()
    }

    /// An empty memo whose hit/miss traffic feeds the given registry
    /// counters (shared-cache traffic is interleaving-dependent, so the
    /// pipeline registers these as advisory).
    pub fn with_counters(hits: CounterHandle, misses: CounterHandle) -> ArtifactMemo {
        ArtifactMemo {
            hits,
            misses,
            ..ArtifactMemo::default()
        }
    }

    /// `(hits, misses)` so far, over images and PDFs combined.
    pub fn counts(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Run `use_base` over the decode result for `key`, computing and
    /// storing it on a miss. Concurrent misses on one key may both compute
    /// (the result is a pure function of the content, so both compute the
    /// same value); the first insert wins.
    fn with_cached(
        &self,
        kind: &'static str,
        map: &RwLock<HashMap<u128, Vec<BaseResource>>>,
        key: u128,
        compute: impl FnOnce() -> Vec<BaseResource>,
        use_base: impl FnOnce(&[BaseResource]),
    ) {
        let artifact_event = |cache: &str| {
            cb_telemetry::with_active(|t| {
                t.instant_adv(
                    "extract.artifact",
                    vec![("kind", kind.to_string())],
                    vec![("cache", cache.to_string())],
                )
            });
        };
        if let Some(base) = map.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
            self.hits.incr();
            artifact_event("hit");
            use_base(base);
            return;
        }
        self.misses.incr();
        artifact_event("miss");
        let base = compute();
        use_base(&base);
        map.write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(base);
    }
}

/// Extract every web resource from a parsed message.
pub fn extract_resources(message: &MimeEntity) -> Vec<ExtractedResource> {
    extract_resources_memo(message, None)
}

/// [`extract_resources`] with an optional artifact-decode memo shared
/// across messages. `None` is the cache-free reference path; the output is
/// identical either way.
pub fn extract_resources_memo(
    message: &MimeEntity,
    memo: Option<&ArtifactMemo>,
) -> Vec<ExtractedResource> {
    let mut out = Vec::new();
    walk_entity(message, 0, None, memo, &mut out);
    dedup(out)
}

fn dedup(resources: Vec<ExtractedResource>) -> Vec<ExtractedResource> {
    let mut seen = std::collections::HashSet::with_capacity(resources.len());
    resources
        .into_iter()
        .filter(|r| seen.insert(resource_key(r)))
        .collect()
}

/// Dedup key: one 128-bit hash over the URL bytes plus a source tag,
/// probed by value — no per-resource `(String, ExtractionSource)` clone
/// just to test membership. `0xFF` separates url from tag; it can never
/// appear inside the URL (not a valid UTF-8 byte).
fn resource_key(r: &ExtractedResource) -> u128 {
    let tag: u8 = match r.source {
        ExtractionSource::BodyText => 0,
        ExtractionSource::HtmlHref => 1,
        ExtractionSource::HtmlScriptRedirect => 2,
        ExtractionSource::QrCode { faulty: false } => 3,
        ExtractionSource::QrCode { faulty: true } => 4,
        ExtractionSource::ImageOcr => 5,
        ExtractionSource::PdfAnnotation => 6,
        ExtractionSource::PdfText => 7,
        ExtractionSource::ZipMember => 8,
        ExtractionSource::NestedEml => 9,
        ExtractionSource::HtmlAttachment => 10,
    };
    fingerprint::fnv128_iter(r.url.bytes().chain([0xFF, tag]))
}

/// Wrap a source in its container provenance when recursing. QR sources
/// keep their identity regardless of nesting: the faulty-QR flag (§V-C1)
/// must survive ZIP/EML/PDF containers, or the measurement undercounts.
fn wrap(source: ExtractionSource, container: Option<&ExtractionSource>) -> ExtractionSource {
    if matches!(source, ExtractionSource::QrCode { .. }) {
        return source;
    }
    match container {
        Some(ExtractionSource::ZipMember) => ExtractionSource::ZipMember,
        Some(ExtractionSource::NestedEml) => ExtractionSource::NestedEml,
        _ => source,
    }
}

fn walk_entity(
    entity: &MimeEntity,
    depth: usize,
    container: Option<&ExtractionSource>,
    memo: Option<&ArtifactMemo>,
    out: &mut Vec<ExtractedResource>,
) {
    if depth > MAX_DEPTH {
        return;
    }
    for leaf in entity.leaves() {
        let Some(bytes) = leaf.body_bytes() else {
            continue;
        };
        match leaf.content_type().media_type() {
            MediaType::Text => {
                if let Some(text) = leaf.body_text() {
                    extract_from_text(&text, container, out);
                }
            }
            MediaType::Html => {
                if let Some(text) = leaf.body_text() {
                    let is_attachment = leaf.filename().is_some();
                    extract_from_html(&text, is_attachment, container, out);
                }
            }
            MediaType::Image => extract_from_image_bytes(bytes, container, memo, out),
            MediaType::Pdf => extract_from_pdf(bytes, container, memo, out),
            MediaType::Zip => extract_from_zip(bytes, depth, memo, out),
            MediaType::Eml => extract_from_eml(bytes, depth, memo, out),
            MediaType::OctetStream | MediaType::Other => {
                extract_by_signature(bytes, depth, container, memo, out)
            }
            MediaType::Multipart => unreachable!("leaves() yields no containers"),
        }
    }
}

/// Scan free text for http(s) URLs.
pub fn extract_from_text(
    text: &str,
    container: Option<&ExtractionSource>,
    out: &mut Vec<ExtractedResource>,
) {
    let mut rest = text;
    while let Some(pos) = rest.find("http") {
        let tail = &rest[pos..];
        if tail.starts_with("http://") || tail.starts_with("https://") {
            // Anchored extraction: the URL at *this* scheme position — a
            // later https:// in the same text must not shadow an earlier
            // http:// link.
            if let Some(mut url) = extract_url_anchored(tail.as_bytes()) {
                // Sentence punctuation touching a URL is not part of it.
                while url.ends_with(['.', ',', ';', ':', ')', ']', '\'']) {
                    url.pop();
                }
                out.push(ExtractedResource {
                    source: wrap(ExtractionSource::BodyText, container),
                    url,
                });
            }
        }
        rest = &rest[pos + 4..];
    }
}

fn extract_from_html(
    html: &str,
    is_attachment: bool,
    container: Option<&ExtractionSource>,
    out: &mut Vec<ExtractedResource>,
) {
    // One token-stream pass instead of DOM materialization + three walks;
    // cb_web::PageScan is differentially tested to emit the identical
    // values in the identical order.
    let page = cb_web::PageScan::of(html);
    for href in page.anchor_hrefs {
        if href.starts_with("http") {
            out.push(ExtractedResource {
                source: wrap(ExtractionSource::HtmlHref, container),
                url: href,
            });
        }
    }
    if let Some(url) = page.meta_refresh {
        if url.starts_with("http") {
            out.push(ExtractedResource {
                source: wrap(ExtractionSource::HtmlHref, container),
                url,
            });
        }
    }
    // Dynamic analysis: run inline scripts in a recording sandbox and
    // observe navigations (the paper: "any discovered HTML or JavaScript
    // code is dynamically loaded … fundamental given the use of
    // obfuscation").
    for src in page.inline_scripts {
        if let Ok(script) = cb_script::Script::parse(&src) {
            let mut host = cb_script::hosts::RecordingHost::new();
            let _ = cb_script::run(&script, &mut host);
            for nav in host.navigations() {
                if nav.starts_with("http") {
                    let source = if is_attachment {
                        ExtractionSource::HtmlAttachment
                    } else {
                        ExtractionSource::HtmlScriptRedirect
                    };
                    out.push(ExtractedResource {
                        source: wrap(source, container),
                        url: nav,
                    });
                }
            }
        }
    }
}

/// Decode one image into container-independent base resources: QR first,
/// then OCR — the §IV-B image path, minus provenance wrapping.
fn image_base(img: &Bitmap) -> Vec<BaseResource> {
    let mut base = Vec::new();
    if let Some(payload) = qrimage::decode_from_image(img) {
        let strict = extract_url_strict(&payload);
        let lenient = extract_url_lenient(&payload);
        match (strict, lenient) {
            (Some(url), _) => base.push((url, BaseKind::QrClean)),
            (None, Some(url)) => base.push((url, BaseKind::QrFaulty)),
            (None, None) => {}
        }
    }
    let text = cb_artifacts::ocr::recognize_any_scale(img);
    if !text.is_empty() {
        // OCR output is case-folded; URLs survive lowercasing.
        let mut found = Vec::new();
        extract_from_text(&text.to_lowercase(), None, &mut found);
        for r in found {
            base.push((r.url, BaseKind::ImageOcr));
        }
    }
    base
}

/// Apply call-site provenance to decoded base resources and emit them.
fn realize(
    base: &[BaseResource],
    container: Option<&ExtractionSource>,
    out: &mut Vec<ExtractedResource>,
) {
    for (url, kind) in base {
        let source = match kind {
            BaseKind::QrClean => ExtractionSource::QrCode { faulty: false },
            BaseKind::QrFaulty => ExtractionSource::QrCode { faulty: true },
            BaseKind::ImageOcr => wrap(ExtractionSource::ImageOcr, container),
            BaseKind::PdfAnnotation => wrap(ExtractionSource::PdfAnnotation, container),
            BaseKind::PdfText => wrap(ExtractionSource::PdfText, container),
        };
        out.push(ExtractedResource {
            url: url.clone(),
            source,
        });
    }
}

fn extract_from_image_bytes(
    bytes: &[u8],
    container: Option<&ExtractionSource>,
    memo: Option<&ArtifactMemo>,
    out: &mut Vec<ExtractedResource>,
) {
    let decode = || {
        // Foreign raster formats (real PNG/JPEG) carry no decodable pixels
        // in the simulation.
        Bitmap::from_bytes(bytes)
            .map(|img| image_base(&img))
            .unwrap_or_default()
    };
    match memo {
        Some(m) => m.with_cached(
            "image",
            &m.images,
            fingerprint::fnv128(bytes),
            decode,
            |base| realize(base, container, out),
        ),
        None => realize(&decode(), container, out),
    }
}

/// The image path: QR detection then OCR (§IV-B).
pub fn extract_from_image(
    img: &Bitmap,
    container: Option<&ExtractionSource>,
    out: &mut Vec<ExtractedResource>,
) {
    realize(&image_base(img), container, out);
}

/// Decode one PDF into container-independent base resources: link
/// annotations, direct text, then each page screenshot through the image
/// path (where OCR reads as [`BaseKind::PdfText`] and QR provenance
/// survives).
fn pdf_base(bytes: &[u8]) -> Vec<BaseResource> {
    let Ok(doc) = PdfDocument::parse(bytes) else {
        return Vec::new();
    };
    let mut base = Vec::new();
    // (1) embedded and text-based URLs (PDF text is faithful — no case
    // folding, unlike the OCR path)
    for uri in doc.link_uris() {
        if uri.starts_with("http") {
            base.push((uri.to_string(), BaseKind::PdfAnnotation));
        }
    }
    let mut text_found = Vec::new();
    extract_from_text(&doc.all_text(), None, &mut text_found);
    for r in text_found {
        base.push((r.url, BaseKind::PdfText));
    }
    // (2) screenshot of each page through the image path
    for page in &doc.pages {
        let shot = page.rasterize(
            cb_artifacts::pdf::PAGE_WIDTH,
            cb_artifacts::pdf::PAGE_HEIGHT,
        );
        for (url, kind) in image_base(&shot) {
            let kind = match kind {
                BaseKind::QrClean | BaseKind::QrFaulty => kind,
                _ => BaseKind::PdfText,
            };
            base.push((url, kind));
        }
    }
    base
}

fn extract_from_pdf(
    bytes: &[u8],
    container: Option<&ExtractionSource>,
    memo: Option<&ArtifactMemo>,
    out: &mut Vec<ExtractedResource>,
) {
    match memo {
        Some(m) => m.with_cached(
            "pdf",
            &m.pdfs,
            fingerprint::fnv128(bytes),
            || pdf_base(bytes),
            |base| realize(base, container, out),
        ),
        None => realize(&pdf_base(bytes), container, out),
    }
}

fn extract_from_zip(
    bytes: &[u8],
    depth: usize,
    memo: Option<&ArtifactMemo>,
    out: &mut Vec<ExtractedResource>,
) {
    let Ok(zip) = ZipArchive::parse(bytes) else {
        return;
    };
    let zip_source = ExtractionSource::ZipMember;
    for entry in zip.entries() {
        extract_by_signature(&entry.data, depth + 1, Some(&zip_source), memo, out);
    }
}

fn extract_from_eml(
    bytes: &[u8],
    depth: usize,
    memo: Option<&ArtifactMemo>,
    out: &mut Vec<ExtractedResource>,
) {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return;
    };
    let Ok(inner) = MimeEntity::parse(text) else {
        return;
    };
    let eml_source = ExtractionSource::NestedEml;
    walk_entity(&inner, depth + 1, Some(&eml_source), memo, out);
}

/// Dispatch unlabeled bytes by magic number (§IV-B octet-stream handling).
fn extract_by_signature(
    bytes: &[u8],
    depth: usize,
    container: Option<&ExtractionSource>,
    memo: Option<&ArtifactMemo>,
    out: &mut Vec<ExtractedResource>,
) {
    if depth > MAX_DEPTH {
        return;
    }
    match magic::sniff(bytes) {
        FileKind::Zip => extract_from_zip(bytes, depth, memo, out),
        FileKind::Pdf => extract_from_pdf(bytes, container, memo, out),
        FileKind::CbxBitmap => extract_from_image_bytes(bytes, container, memo, out),
        FileKind::Eml => extract_from_eml(bytes, depth, memo, out),
        FileKind::Html => {
            if let Ok(text) = std::str::from_utf8(bytes) {
                // HTA droppers are HTML by signature; CrawlerBox refuses to
                // execute them (§V) but still statically extracts URLs.
                extract_from_html(text, true, container, out);
                if magic::is_hta(bytes) {
                    extract_from_text(text, container, out);
                }
            }
        }
        FileKind::Text => {
            if let Ok(text) = std::str::from_utf8(bytes) {
                extract_from_text(text, container, out);
            }
        }
        FileKind::Png | FileKind::Jpeg | FileKind::Gif | FileKind::Unknown => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_phishgen::messages::{build_message, Carrier};
    use cb_sim::{SeedFork, SimTime};

    fn extract_for(carrier: Carrier, url: &str) -> Vec<ExtractedResource> {
        let mut rng = SeedFork::new(3).rng("x");
        let raw = build_message(
            &mut rng,
            carrier,
            Some(url),
            "v@corp.example",
            SimTime::from_ymd(2024, 4, 2),
            false,
            None,
            9,
        );
        let msg = MimeEntity::parse(&raw).unwrap();
        extract_resources(&msg)
    }

    #[test]
    fn body_link_extracted_from_text_and_html() {
        let found = extract_for(Carrier::BodyLink, "https://evil-b.example/tokn1234");
        assert!(found
            .iter()
            .any(|r| r.url == "https://evil-b.example/tokn1234"
                && r.source == ExtractionSource::BodyText));
        assert!(found.iter().any(|r| r.source == ExtractionSource::HtmlHref));
    }

    #[test]
    fn clean_qr_extracted_with_source() {
        let found = extract_for(
            Carrier::QrCode { faulty: false },
            "https://evil-q.example/qrtoken1",
        );
        assert!(found
            .iter()
            .any(|r| r.url == "https://evil-q.example/qrtoken1"
                && r.source == ExtractionSource::QrCode { faulty: false }));
    }

    #[test]
    fn faulty_qr_recovered_and_flagged() {
        let found = extract_for(
            Carrier::QrCode { faulty: true },
            "https://evil-q.example/faulty77",
        );
        assert!(
            found
                .iter()
                .any(|r| r.url == "https://evil-q.example/faulty77"
                    && r.source == ExtractionSource::QrCode { faulty: true }),
            "{found:?}"
        );
    }

    #[test]
    fn image_text_found_by_ocr() {
        let found = extract_for(Carrier::ImageText, "https://evil-i.example/imgtok12");
        assert!(
            found
                .iter()
                .any(|r| r.url == "https://evil-i.example/imgtok12"
                    && r.source == ExtractionSource::ImageOcr),
            "{found:?}"
        );
    }

    #[test]
    fn pdf_annotation_and_pdf_text_paths() {
        let a = extract_for(Carrier::PdfLink, "https://evil-p.example/pdftok12");
        assert!(a
            .iter()
            .any(|r| r.source == ExtractionSource::PdfAnnotation));
        let b = extract_for(Carrier::PdfText, "https://evil-p.example/pdftxt12");
        assert!(
            b.iter().any(|r| r.url == "https://evil-p.example/pdftxt12"
                && r.source == ExtractionSource::PdfText),
            "{b:?}"
        );
    }

    #[test]
    fn nested_eml_recursed() {
        let found = extract_for(Carrier::NestedEml, "https://evil-n.example/nesttok1");
        assert!(found
            .iter()
            .any(|r| r.url == "https://evil-n.example/nesttok1"
                && r.source == ExtractionSource::NestedEml));
    }

    #[test]
    fn html_attachment_redirect_detected_dynamically() {
        let found = extract_for(Carrier::HtmlAttachment, "https://evil-h.example/redirect");
        assert!(
            found
                .iter()
                .any(|r| r.url == "https://evil-h.example/redirect"
                    && r.source == ExtractionSource::HtmlAttachment),
            "{found:?}"
        );
    }

    #[test]
    fn zip_hta_member_surfaces_url() {
        let found = extract_for(Carrier::ZipHta, "https://evil-z.example/htatok12");
        assert!(
            found.iter().any(
                |r| r.url.contains("evil-z.example") && r.source == ExtractionSource::ZipMember
            ),
            "{found:?}"
        );
    }

    #[test]
    fn no_resource_message_yields_nothing() {
        let found = extract_for(Carrier::None, "https://unused.example/");
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn duplicates_are_removed() {
        let mut out = vec![
            ExtractedResource {
                url: "https://a.example/".into(),
                source: ExtractionSource::BodyText,
            },
            ExtractedResource {
                url: "https://a.example/".into(),
                source: ExtractionSource::BodyText,
            },
            ExtractedResource {
                url: "https://a.example/".into(),
                source: ExtractionSource::HtmlHref,
            },
        ];
        out = dedup(out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn text_scanner_finds_multiple_urls() {
        let mut out = Vec::new();
        extract_from_text(
            "first https://a.example/x then http://b.example/y.",
            None,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].url, "http://b.example/y");
    }

    #[test]
    fn depth_bomb_terminates() {
        // ZIP containing a ZIP containing … beyond MAX_DEPTH.
        let mut inner = ZipArchive::new();
        inner.add("u.txt", b"https://deep.example/x");
        let mut bytes = inner.to_bytes();
        for i in 0..10 {
            let mut z = ZipArchive::new();
            z.add(&format!("layer{i}.zip"), &bytes);
            bytes = z.to_bytes();
        }
        let mut out = Vec::new();
        extract_by_signature(&bytes, 0, None, None, &mut out);
        // must terminate without finding the too-deep URL
        assert!(out.is_empty());
    }

    #[test]
    fn memoized_extraction_is_identical_and_hits_on_reuse() {
        let memo = ArtifactMemo::new();
        let carriers = [
            Carrier::QrCode { faulty: false },
            Carrier::QrCode { faulty: true },
            Carrier::ImageText,
            Carrier::PdfLink,
            Carrier::PdfText,
            Carrier::ZipHta,
            Carrier::NestedEml,
        ];
        for (i, carrier) in carriers.iter().enumerate() {
            let mut rng = SeedFork::new(7).rng("memo");
            let raw = build_message(
                &mut rng,
                *carrier,
                Some(&format!("https://evil-m.example/tok{i}00z")),
                "v@corp.example",
                SimTime::from_ymd(2024, 4, 2),
                false,
                None,
                9,
            );
            let msg = MimeEntity::parse(&raw).unwrap();
            let plain = extract_resources(&msg);
            let first = extract_resources_memo(&msg, Some(&memo));
            let replay = extract_resources_memo(&msg, Some(&memo));
            assert_eq!(plain, first, "{carrier:?}: memoized differs from plain");
            assert_eq!(first, replay, "{carrier:?}: replay differs from first");
        }
        let (hits, misses) = memo.counts();
        assert!(misses > 0, "artifact carriers must populate the memo");
        assert!(hits >= misses, "second passes must replay from cache");
    }

    #[test]
    fn resource_keys_separate_url_and_source() {
        let a = ExtractedResource {
            url: "https://a.example/".into(),
            source: ExtractionSource::QrCode { faulty: false },
        };
        let mut b = a.clone();
        b.source = ExtractionSource::QrCode { faulty: true };
        assert_ne!(resource_key(&a), resource_key(&b));
        let mut c = a.clone();
        c.url = "https://a.example/x".into();
        assert_ne!(resource_key(&a), resource_key(&c));
        assert_eq!(resource_key(&a), resource_key(&a.clone()));
    }
}
