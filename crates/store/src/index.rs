//! In-memory indexes over the record log, rebuilt on open and maintained
//! on append.
//!
//! The index holds one compact [`RecordMeta`] per stored record (never the
//! record itself) plus inverted maps by landing domain, certificate
//! fingerprint, screenshot perceptual hash, message class and content
//! hash — the lookup axes of the paper's longitudinal campaign analysis.
//! [`RecordMeta::of`] derives every meta from a [`ScanRecord`]: on append
//! in [`encode_record`](crate::encode_record), on recovery from the record
//! decoded out of its log payload.
//! Campaign ids are derived, not stored: [`crate::query::cluster_campaigns`]
//! rebuilds them from these metas with a union-find over shared evidence.

use cb_netsim::Url;
use cb_phishgen::MessageClass;
use crawlerbox::ScanRecord;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The URL-token scheme of a path: each segment reduced to a shape token
/// (`d`igits / he`x` / `a`lpha / `m`ixed, plus length), joined with `/`.
///
/// Phishing kits stamp out URLs from a template — `/login/secure/<hex32>`
/// and friends — so two URLs sharing a scheme are campaign co-occurrence
/// evidence even when domains and tokens differ. Returns `None` for paths
/// too generic to correlate on (empty, or a single short segment).
pub fn url_token_scheme(url: &str) -> Option<String> {
    let after_scheme = url.split_once("://").map(|(_, rest)| rest).unwrap_or(url);
    let path = after_scheme.split_once('/').map(|(_, p)| p).unwrap_or("");
    let path = path.split(['?', '#']).next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    if segments.is_empty() {
        return None;
    }
    // One short segment ("/index", "/a") would cluster unrelated sites.
    if segments.len() == 1 && segments[0].len() < 8 {
        return None;
    }
    let tokens: Vec<String> = segments
        .iter()
        .map(|seg| {
            // Alpha outranks hex so ordinary words ("deadbeef") don't read
            // as hex tokens; hex requires at least one actual digit.
            let class = if seg.bytes().all(|b| b.is_ascii_digit()) {
                'd'
            } else if seg.bytes().all(|b| b.is_ascii_alphabetic()) {
                'a'
            } else if seg.bytes().all(|b| b.is_ascii_hexdigit()) {
                'x'
            } else {
                'm'
            };
            format!("{class}{}", seg.len())
        })
        .collect();
    Some(tokens.join("/"))
}

/// Compact per-record index entry, derived from a [`ScanRecord`] at append
/// or recovery time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMeta {
    /// Position in the log (0-based append order).
    pub seq: usize,
    /// Corpus message id.
    pub message_id: usize,
    /// FNV-128 hash of the raw message (blob address of the message).
    pub content_hash: u128,
    /// Derived §V class.
    pub class: MessageClass,
    /// Whether the scan degraded (error provenance present).
    pub degraded: bool,
    /// Landing domains of the record's visits (deduped, first-seen order).
    pub domains: Vec<String>,
    /// Certificate fingerprints observed across visits (deduped).
    pub cert_fingerprints: Vec<u64>,
    /// Screenshot perceptual hashes across visits (deduped).
    pub phashes: Vec<u64>,
    /// URL-token schemes of the visited URLs (deduped).
    pub url_schemes: Vec<String>,
}

impl RecordMeta {
    /// Derive the meta of `record` at log position `seq`: the live append
    /// path and recovery (which decodes each payload back into a
    /// [`ScanRecord`]) both come here, so they cannot derive different
    /// metas for the same record.
    pub fn of(seq: usize, record: &ScanRecord) -> RecordMeta {
        let mut meta = RecordMeta {
            seq,
            message_id: record.message_id,
            content_hash: record.content_hash,
            class: record.class,
            degraded: record.error.is_some(),
            domains: Vec::new(),
            cert_fingerprints: Vec::new(),
            phashes: Vec::new(),
            url_schemes: Vec::new(),
        };
        for visit in &record.visits {
            if let Ok(url) = Url::parse(visit.final_url()) {
                push_new(&mut meta.domains, url.host);
            }
            if let Some(fp) = visit.cert_fingerprint {
                push_new(&mut meta.cert_fingerprints, fp);
            }
            if let Some(shot) = visit.screenshot_hash {
                push_new(&mut meta.phashes, shot.phash);
            }
            if let Some(scheme) = url_token_scheme(&visit.requested_url) {
                push_new(&mut meta.url_schemes, scheme);
            }
        }
        meta
    }
}

/// Append `x` unless `v` already holds it (first-seen order).
fn push_new<T: PartialEq>(v: &mut Vec<T>, x: T) {
    if !v.contains(&x) {
        v.push(x);
    }
}

/// The rebuilt-on-open, maintained-on-append index over the log.
#[derive(Debug, Default)]
pub struct StoreIndex {
    metas: Vec<RecordMeta>,
    by_hash: HashMap<u128, usize>,
    by_domain: BTreeMap<String, Vec<usize>>,
    by_cert: BTreeMap<u64, Vec<usize>>,
    by_phash: BTreeMap<u64, Vec<usize>>,
    by_class: BTreeMap<MessageClass, Vec<usize>>,
}

impl StoreIndex {
    /// An empty index.
    pub fn new() -> StoreIndex {
        StoreIndex::default()
    }

    /// Append a meta derived elsewhere (by recovery, or by an ingest
    /// worker) as the next log entry, assigning its `seq`; returns that
    /// seq.
    pub(crate) fn push_recovered(&mut self, mut meta: RecordMeta) -> usize {
        let seq = self.metas.len();
        meta.seq = seq;
        self.push_meta(meta);
        seq
    }

    fn push_meta(&mut self, meta: RecordMeta) {
        debug_assert_eq!(
            meta.seq,
            self.metas.len(),
            "metas must be pushed in seq order"
        );
        let seq = meta.seq;
        self.by_hash.insert(meta.content_hash, seq);
        for d in &meta.domains {
            self.by_domain.entry(d.clone()).or_default().push(seq);
        }
        for &fp in &meta.cert_fingerprints {
            self.by_cert.entry(fp).or_default().push(seq);
        }
        for &p in &meta.phashes {
            self.by_phash.entry(p).or_default().push(seq);
        }
        self.by_class.entry(meta.class).or_default().push(seq);
        self.metas.push(meta);
    }

    /// Test-only: insert a pre-derived meta (the clustering tests build
    /// synthetic evidence without full scan records).
    #[cfg(test)]
    pub(crate) fn insert_meta_for_test(&mut self, mut meta: RecordMeta) {
        meta.seq = self.metas.len();
        self.push_meta(meta);
    }

    /// Records indexed.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// All metas in log order.
    pub fn metas(&self) -> &[RecordMeta] {
        &self.metas
    }

    /// Meta of log entry `seq`.
    pub fn meta(&self, seq: usize) -> Option<&RecordMeta> {
        self.metas.get(seq)
    }

    /// Whether a record with this content hash is stored — the incremental
    /// re-scan predicate.
    pub fn contains_hash(&self, hash: u128) -> bool {
        self.by_hash.contains_key(&hash)
    }

    /// All recorded content hashes — feed to
    /// [`CrawlerBox::with_known_hashes`](crawlerbox::CrawlerBox::with_known_hashes)
    /// to turn a repeated run into a delta scan.
    pub fn known_hashes(&self) -> HashSet<u128> {
        self.by_hash.keys().copied().collect()
    }

    /// Seqs of records that landed on `domain` (exact match).
    pub fn by_domain(&self, domain: &str) -> &[usize] {
        self.by_domain.get(domain).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Seqs of records that observed certificate fingerprint `fp`.
    pub fn by_cert(&self, fp: u64) -> &[usize] {
        self.by_cert.get(&fp).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Seqs of records whose screenshots hashed to `phash`.
    pub fn by_phash(&self, phash: u64) -> &[usize] {
        self.by_phash.get(&phash).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Seqs of records of `class`.
    pub fn by_class(&self, class: MessageClass) -> &[usize] {
        self.by_class.get(&class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Landing domains in the index, with record counts (sorted by domain).
    pub fn domain_counts(&self) -> impl Iterator<Item = (&str, usize)> {
        self.by_domain
            .iter()
            .map(|(d, seqs)| (d.as_str(), seqs.len()))
    }

    /// Class histogram over the whole log (sorted by class).
    pub fn class_counts(&self) -> impl Iterator<Item = (MessageClass, usize)> + '_ {
        self.by_class.iter().map(|(c, seqs)| (*c, seqs.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_schemes_capture_shape_not_content() {
        assert_eq!(
            url_token_scheme("https://a.example/login/secure/0123abcd0123abcd"),
            Some("a5/a6/x16".to_string())
        );
        assert_eq!(
            url_token_scheme("https://other.example/admin/portal/fedcba9876543210"),
            Some("a5/a6/x16".to_string()),
            "same template shape, different tokens and domain"
        );
        assert_eq!(url_token_scheme("https://a.example/track?id=9"), None);
        assert_eq!(url_token_scheme("https://a.example/"), None);
        assert_eq!(url_token_scheme("https://a.example"), None);
        assert_eq!(
            url_token_scheme("https://a.example/verify-account-22"),
            Some("m17".into())
        );
        assert_eq!(
            url_token_scheme("https://a.example/12345/678"),
            Some("d5/d3".into())
        );
    }

    #[test]
    fn hex_beats_alpha_only_when_digits_present() {
        // "deadbeef" is all hex digits but also all alphabetic; the alpha
        // class must win so ordinary words don't read as tokens.
        assert_eq!(
            url_token_scheme("https://x.example/deadbeef"),
            Some("a8".into())
        );
        assert_eq!(
            url_token_scheme("https://x.example/dead8eef"),
            Some("x8".into())
        );
    }
}
