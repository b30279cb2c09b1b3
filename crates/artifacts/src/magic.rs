//! File-signature ("magic number") sniffing.
//!
//! CrawlerBox analyzes `application/octet-stream` parts "according to their
//! file signature determined by magic numbers" (§IV-B) — attackers routinely
//! mislabel content types to dodge type-specific scanners. This module also
//! recognizes HTA droppers, the payload of the paper's five ZIP download
//! chains, which CrawlerBox deliberately refuses to execute.

/// What a byte blob actually is, regardless of its declared content type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// ZIP archive (`PK\x03\x04` or an empty archive's `PK\x05\x06`).
    Zip,
    /// PDF document (`%PDF-`).
    Pdf,
    /// PNG image.
    Png,
    /// JPEG image.
    Jpeg,
    /// GIF image.
    Gif,
    /// Our own bitmap serialization (`CBXBMP1`).
    CbxBitmap,
    /// HTML document (including HTA content — see [`is_hta`]).
    Html,
    /// An RFC 822 message (header-shaped text).
    Eml,
    /// Printable text with no stronger signature.
    Text,
    /// Anything else.
    Unknown,
}

/// Sniff the kind of `data` from its leading bytes (and light heuristics for
/// the text-like kinds).
pub fn sniff(data: &[u8]) -> FileKind {
    if data.starts_with(b"PK\x03\x04") || data.starts_with(b"PK\x05\x06") {
        return FileKind::Zip;
    }
    if data.starts_with(b"%PDF-") {
        return FileKind::Pdf;
    }
    if data.starts_with(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]) {
        return FileKind::Png;
    }
    if data.starts_with(&[0xFF, 0xD8, 0xFF]) {
        return FileKind::Jpeg;
    }
    if data.starts_with(b"GIF87a") || data.starts_with(b"GIF89a") {
        return FileKind::Gif;
    }
    if data.starts_with(b"CBXBMP1") {
        return FileKind::CbxBitmap;
    }
    // Text-like heuristics need a decodable prefix.
    let text_prefix = String::from_utf8_lossy(&data[..data.len().min(2048)]);
    let trimmed = text_prefix.trim_start();
    let lower = trimmed.to_ascii_lowercase();
    if lower.starts_with("<!doctype html")
        || lower.starts_with("<html")
        || lower.starts_with("<head")
        || lower.starts_with("<script")
        || lower.starts_with("<body")
    {
        return FileKind::Html;
    }
    if looks_like_eml(trimmed) {
        return FileKind::Eml;
    }
    if !data.is_empty()
        && data
            .iter()
            .take(512)
            .all(|&b| b == b'\n' || b == b'\r' || b == b'\t' || (0x20..0x7F).contains(&b))
    {
        return FileKind::Text;
    }
    FileKind::Unknown
}

/// Heuristic for RFC 822 content: several leading `Name: value` lines with
/// at least one well-known mail header.
fn looks_like_eml(text: &str) -> bool {
    let mut header_lines = 0;
    let mut known = false;
    for line in text.lines().take(10) {
        if line.is_empty() {
            break;
        }
        if let Some((name, _)) = line.split_once(':') {
            if !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
                header_lines += 1;
                let lower = name.to_ascii_lowercase();
                if matches!(
                    lower.as_str(),
                    "from" | "to" | "subject" | "received" | "date" | "message-id" | "mime-version"
                ) {
                    known = true;
                }
                continue;
            }
        }
        if !(line.starts_with(' ') || line.starts_with('\t')) {
            return false;
        }
    }
    header_lines >= 2 && known
}

/// `true` if HTML content is an HTA (HTML Application) dropper: the Windows
/// `mshta.exe` vector the paper's ZIP chains delivered. Detection keys on
/// the `hta:application` element or ActiveX instantiation.
pub fn is_hta(data: &[u8]) -> bool {
    let text = String::from_utf8_lossy(&data[..data.len().min(8192)]).to_ascii_lowercase();
    text.contains("<hta:application") || text.contains("activexobject")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_signatures() {
        assert_eq!(sniff(b"PK\x03\x04rest"), FileKind::Zip);
        assert_eq!(sniff(b"%PDF-1.7 ..."), FileKind::Pdf);
        assert_eq!(
            sniff(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A, 1]),
            FileKind::Png
        );
        assert_eq!(sniff(&[0xFF, 0xD8, 0xFF, 0xE0]), FileKind::Jpeg);
        assert_eq!(sniff(b"GIF89a...."), FileKind::Gif);
        assert_eq!(sniff(b"CBXBMP1...."), FileKind::CbxBitmap);
    }

    #[test]
    fn html_detection() {
        assert_eq!(sniff(b"<!DOCTYPE html><html>"), FileKind::Html);
        assert_eq!(sniff(b"  <html lang=\"en\">"), FileKind::Html);
        assert_eq!(
            sniff(b"<script>location.href='https://x.example'</script>"),
            FileKind::Html
        );
    }

    #[test]
    fn eml_detection() {
        let eml = b"From: a@x.example\r\nTo: b@y.example\r\nSubject: hi\r\n\r\nbody";
        assert_eq!(sniff(eml), FileKind::Eml);
        // generic key:value config is not mail
        assert_eq!(sniff(b"color: red\nsize: 10\n\nx"), FileKind::Text);
    }

    #[test]
    fn plain_text_fallback() {
        assert_eq!(sniff(b"just a harmless note"), FileKind::Text);
        assert_eq!(sniff(&[0u8, 159, 200]), FileKind::Unknown);
        assert_eq!(sniff(b""), FileKind::Unknown);
    }

    #[test]
    fn hta_detection() {
        assert!(is_hta(
            b"<html><hta:application id=x /><script>...</script>"
        ));
        assert!(is_hta(
            b"<script>var sh = new ActiveXObject('WScript.Shell');</script>"
        ));
        assert!(!is_hta(b"<html><body>benign page</body></html>"));
    }

    #[test]
    fn mislabeled_zip_detected() {
        // Declared octet-stream, actually a ZIP: the pipeline relies on this.
        let mut a = crate::zip::ZipArchive::new();
        a.add("inner.hta", b"<hta:application/>");
        assert_eq!(sniff(&a.to_bytes()), FileKind::Zip);
    }
}
