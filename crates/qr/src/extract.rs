//! URL extraction from decoded QR payloads — the policy mismatch behind the
//! paper's in-the-wild bug (§V-C1).
//!
//! Email security filters validate the *whole* payload as a URL and discard
//! anything syntactically irregular ([`extract_url_strict`]). Mobile camera
//! apps instead *search* the payload for a URL and ignore surrounding junk
//! ([`extract_url_lenient`]). Attackers exploit the gap with payloads such
//! as `"xxx https://evil-site.com/"`: the filter sees garbage and classifies
//! the message benign, the victim's phone opens the link.

/// Characters allowed in the body of a URL (conservative RFC 3986 subset).
fn is_url_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric()
        || matches!(
            b,
            b'-' | b'.'
                | b'_'
                | b'~'
                | b':'
                | b'/'
                | b'?'
                | b'#'
                | b'['
                | b']'
                | b'@'
                | b'!'
                | b'$'
                | b'&'
                | b'\''
                | b'('
                | b')'
                | b'*'
                | b'+'
                | b','
                | b';'
                | b'='
                | b'%'
        )
}

/// `true` if the entire payload is one syntactically valid http(s) URL.
///
/// This is the validation an email-filter QR scanner applies: scheme at
/// offset zero, a plausible host with at least one dot, no stray bytes.
pub fn is_valid_url(payload: &str) -> bool {
    let rest = if let Some(r) = payload.strip_prefix("https://") {
        r
    } else if let Some(r) = payload.strip_prefix("http://") {
        r
    } else {
        return false;
    };
    if rest.is_empty() {
        return false;
    }
    if !payload.bytes().all(is_url_byte) {
        return false;
    }
    let host_end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
    let host = &rest[..host_end];
    !host.is_empty()
        && host.contains('.')
        && !host.starts_with('.')
        && !host.ends_with('.')
        && host
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b':')
}

/// Strict (email-filter) extraction: the payload must *be* a URL.
///
/// Returns `None` for the faulty payloads the paper observed, reproducing
/// the false-negative behaviour of two of the three tested commercial
/// filters.
pub fn extract_url_strict(payload: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(payload).ok()?;
    if is_valid_url(text) {
        Some(text.to_string())
    } else {
        None
    }
}

/// Lenient (mobile-camera) extraction: find the first http(s) URL embedded
/// anywhere in the payload, discarding junk before and after it.
pub fn extract_url_lenient(payload: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(payload);
    for scheme in ["https://", "http://"] {
        if let Some(start) = text.find(scheme) {
            let tail = &text[start..];
            let end = tail
                .bytes()
                .position(|b| !is_url_byte(b))
                .unwrap_or(tail.len());
            let candidate = &tail[..end];
            if is_valid_url(candidate) {
                return Some(candidate.to_string());
            }
        }
    }
    None
}

/// Extract a URL that starts at the very beginning of `payload` (after
/// UTF-8 decoding): the anchored variant used when the caller has already
/// located a scheme, so a later `https://` in the same text cannot shadow
/// an earlier `http://`.
pub fn extract_url_anchored(payload: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(payload);
    if !(text.starts_with("http://") || text.starts_with("https://")) {
        return None;
    }
    let end = text
        .bytes()
        .position(|b| !is_url_byte(b))
        .unwrap_or(text.len());
    let candidate = &text[..end];
    is_valid_url(candidate).then(|| candidate.to_string())
}

/// The patched extraction the two vendors deployed after the paper's
/// responsible disclosure: strict validation first, falling back to lenient
/// search so faulty payloads no longer slip through.
pub fn extract_url_patched(payload: &[u8]) -> Option<String> {
    extract_url_strict(payload).or_else(|| extract_url_lenient(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_url_accepted_by_both() {
        let p = b"https://evil-site.example/dhfYWfH";
        assert_eq!(
            extract_url_strict(p).as_deref(),
            Some("https://evil-site.example/dhfYWfH")
        );
        assert_eq!(
            extract_url_lenient(p).as_deref(),
            Some("https://evil-site.example/dhfYWfH")
        );
    }

    #[test]
    fn junk_prefix_reproduces_the_bug() {
        for payload in [
            &b"xxx https://evil-site.example/"[..],
            &b"[https://evil-site.example/"[..],
            &b"scan me! http://evil-site.example/login"[..],
        ] {
            assert_eq!(extract_url_strict(payload), None, "{payload:?}");
            let url = extract_url_lenient(payload).expect("phone finds the URL");
            assert!(url.starts_with("http"), "{url}");
            assert!(url.contains("evil-site.example"), "{url}");
        }
    }

    #[test]
    fn patched_extractor_closes_the_gap() {
        assert_eq!(
            extract_url_patched(b"xxx https://evil-site.example/").as_deref(),
            Some("https://evil-site.example/")
        );
        assert_eq!(
            extract_url_patched(b"https://ok.example/p").as_deref(),
            Some("https://ok.example/p")
        );
    }

    #[test]
    fn non_url_payloads_yield_nothing() {
        for payload in [&b"WIFI:T:WPA;S:net;P:pw;;"[..], b"hello world", b""] {
            assert_eq!(extract_url_strict(payload), None);
            assert_eq!(extract_url_lenient(payload), None);
        }
    }

    #[test]
    fn strict_rejects_bad_hosts() {
        for bad in [
            "https://",
            "https://nodot/path",
            "https://.lead.example/",
            "https://trail.example./",
            "ftp://host.example/",
            "https://spaced host.example/",
        ] {
            assert!(!is_valid_url(bad), "{bad}");
        }
    }

    #[test]
    fn lenient_trims_trailing_junk() {
        let p = "see https://evil.example/path\u{201d} quoted".as_bytes();
        assert_eq!(
            extract_url_lenient(p).as_deref(),
            Some("https://evil.example/path")
        );
    }

    #[test]
    fn lenient_prefers_https_scheme_position() {
        let p = b"go http://first.example/a then https://second.example/b";
        // https is searched first per policy
        assert_eq!(
            extract_url_lenient(p).as_deref(),
            Some("https://second.example/b")
        );
    }

    #[test]
    fn anchored_extraction_ignores_later_schemes() {
        // the bug class: an http URL followed by an https URL elsewhere
        let p = b"http://first.example/tok88 then https://second.example/b";
        assert_eq!(
            extract_url_anchored(p).as_deref(),
            Some("http://first.example/tok88")
        );
        assert_eq!(extract_url_anchored(b"junk https://x.example/"), None);
        assert_eq!(extract_url_anchored(b""), None);
    }

    #[test]
    fn binary_payload_handled() {
        let mut p = vec![0xFF, 0xFE];
        p.extend_from_slice(b"https://bin.example/x");
        assert!(extract_url_strict(&p).is_none());
        assert_eq!(
            extract_url_lenient(&p).as_deref(),
            Some("https://bin.example/x")
        );
    }
}
