//! The logging phase (§IV-C): everything CrawlerBox records about one
//! scanned message, enriched with WHOIS / CT / passive-DNS context.

use crate::classify::SpearMatch;
use crate::extract::ExtractedResource;
use cb_browser::engine::VisitOutcome;
use cb_browser::Screenshot;
use cb_imagehash::HashPair;
use cb_json::{Deserialize, Serialize};
use cb_netsim::{QueryVolume, Url};
use cb_phishgen::MessageClass;
use cb_sim::{SimDuration, SimTime};
use std::borrow::Cow;

/// One attempt in a supervised visit's history: which retry it was, what
/// transient faults it observed, and how long the supervisor backed off
/// before issuing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptLog {
    /// Zero-based attempt index.
    pub attempt: u32,
    /// Transient-fault provenance notes from this attempt.
    pub failures: Vec<String>,
    /// Backoff the supervisor waited before this attempt (zero for the
    /// first attempt).
    pub waited: SimDuration,
}

/// One crawled resource's log entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VisitLog {
    /// The URL the pipeline requested.
    pub requested_url: String,
    /// The navigation chain `(url, status)`.
    pub chain: Vec<(String, u16)>,
    /// Final outcome.
    pub outcome: VisitOutcome,
    /// Final HTTP status.
    pub status: u16,
    /// Whether the final page shows a credential form.
    pub login_form: bool,
    /// pHash/dHash of the screenshot, when one was captured.
    pub screenshot_hash: Option<HashPair>,
    /// Spear classification, when positive.
    pub spear: Option<SpearMatch>,
    /// Subresource loads `(url, status)` — hotlinking evidence.
    pub subresources: Vec<(String, u16)>,
    /// Script-initiated fetches `(url, body, status)` — exfiltration
    /// evidence.
    pub exfil: Vec<(String, String, u16)>,
    /// Scripts hijacked console methods.
    pub console_hijacked: bool,
    /// `debugger;` statements executed.
    pub debugger_hits: usize,
    /// Gate kinds encountered and solved by custom code (`otp`, `math`).
    pub gates_solved: Vec<String>,
    /// WHOIS registration instant of the landing domain.
    pub domain_registered_at: Option<SimTime>,
    /// Registrar of the landing domain.
    pub registrar: Option<String>,
    /// First CT-log certificate issuance of the landing domain.
    pub cert_issued_at: Option<SimTime>,
    /// Passive-DNS volume over the 30 days before delivery.
    pub dns_volume: Option<QueryVolume>,
    /// Shodan-style service banner of the landing host.
    pub banner: Option<String>,
    /// Fingerprint of the landing domain's first CT-log certificate
    /// (stable hash over serial, domain and issuance instant) — the
    /// campaign-clustering key the store indexes on. Absent when the
    /// domain never obtained a certificate.
    #[serde(default)]
    pub cert_fingerprint: Option<u64>,
    /// Whether the final page injected a hue-rotate filter.
    pub hue_rotated: bool,
    /// Attempt history under the crawl supervisor (one entry per attempt;
    /// a single entry with no failures is the common fault-free case).
    #[serde(default)]
    pub attempts: Vec<AttemptLog>,
    /// Total simulated time the visit consumed across attempts, including
    /// backoff waits.
    #[serde(default)]
    pub elapsed: SimDuration,
    /// Structured error provenance when the supervised visit still failed
    /// (retries exhausted, budget spent, or circuit breaker open).
    #[serde(default)]
    pub error: Option<String>,
}

impl VisitLog {
    /// The landing (final) URL.
    pub fn final_url(&self) -> &str {
        self.chain
            .last()
            .map(|(u, _)| u.as_str())
            .unwrap_or(&self.requested_url)
    }

    /// The landing domain (host of the final URL).
    pub fn landing_domain(&self) -> Option<String> {
        Url::parse(self.final_url()).ok().map(|u| u.host)
    }
}

/// Scan, cache and streaming instrumentation accumulated by a
/// [`CrawlerBox`](crate::pipeline::CrawlerBox) across its scans: message
/// counts, hit/miss counts of the artifact-decode, screenshot and page-key
/// caches, and streaming-window residency peaks. Counters are observability only —
/// they never feed back into scan results, which are bit-identical to a
/// scan where every message gets a fresh box and so a cold cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanStats {
    /// Messages scanned.
    pub messages: u64,
    /// Artifact-decode cache hits (image/PDF decodes replayed by content
    /// hash).
    pub artifact_hits: u64,
    /// Artifact-decode cache misses (decodes computed and stored).
    pub artifact_misses: u64,
    /// Screenshot cache hits (pHash/dHash + spear classification replayed).
    pub screenshot_hits: u64,
    /// Screenshot cache misses.
    pub screenshot_misses: u64,
    /// Page-key hits: screenshots whose page source was seen before, so
    /// their blob address was known without hashing the pixels.
    #[serde(default)]
    pub page_hits: u64,
    /// Page-key misses: screenshots rasterized and hashed to learn their
    /// blob address.
    #[serde(default)]
    pub page_misses: u64,
    /// Peak number of messages admitted to a streaming scan but not yet
    /// delivered to the sink. Bounded by `stream_capacity + workers`, which
    /// is what makes `scan_stream` O(window) rather than O(corpus) in
    /// memory. Zero for legacy serialized stats.
    #[serde(default)]
    pub peak_in_flight: u64,
    /// Peak number of finished records parked in the streaming reorder
    /// buffer waiting for an earlier message's scan to complete. Bounded by
    /// `peak_in_flight`; high values mean one slow message stalled in-order
    /// delivery.
    #[serde(default)]
    pub peak_reorder: u64,
    /// Peak raw message bytes resident in the streaming window (counted
    /// from admission until the record's in-order delivery).
    #[serde(default)]
    pub peak_bytes_retained: u64,
    /// Messages skipped by the incremental-scan filter because their
    /// content hash was already recorded in a reopened store (delta
    /// scans). Zero unless a known-hash set was installed.
    #[serde(default)]
    pub skipped_known: u64,
    /// Records a persistence sink dropped after its store was poisoned by
    /// an append error (the sink stops writing; drops are counted, not
    /// silent). The pipeline itself never drops records — runs that
    /// persist fill this in from the store sink after the stream ends.
    #[serde(default)]
    pub store_dropped: u64,
}

impl ScanStats {
    /// Aggregate hit rate over both deterministic caches (artifact decode,
    /// screenshot analysis), in `[0, 1]`. Zero when no cache was consulted.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.artifact_hits + self.screenshot_hits;
        let total = hits + self.artifact_misses + self.screenshot_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for ScanStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "messages {} skipped {} dropped {} | artifact {}/{} screenshot {}/{} page {}/{} (hits/misses) | peak in-flight {} reorder {} bytes {}",
            self.messages,
            self.skipped_known,
            self.store_dropped,
            self.artifact_hits,
            self.artifact_misses,
            self.screenshot_hits,
            self.screenshot_misses,
            self.page_hits,
            self.page_misses,
            self.peak_in_flight,
            self.peak_reorder,
            self.peak_bytes_retained,
        )
    }
}

/// What kind of bytes a captured artifact holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArtifactKind {
    /// The raw reported message (wire-format MIME).
    Message,
    /// A screenshot of a crawled page (`CBXBMP1` bitmap bytes).
    Screenshot,
}

/// Raw bytes captured during a scan for content-addressed archival:
/// the reported message itself and the screenshots of crawled pages.
///
/// Artifacts ride on the [`ScanRecord`] but are **not** part of its
/// canonical encoding (`#[serde(skip)]` on the record field): the record
/// stores the content hash, the bytes live in the blob store, and the
/// record's byte encoding stays identical whether capture is on or off.
///
/// A screenshot whose blob address the scan already knew (a page-key hit)
/// is captured undrawn, as its page source: [`bytes`](Self::bytes) draws
/// it on demand, and the blob store calls it only when its pack lacks the
/// address. The pixels are a pure function of the source, so the drawn
/// bytes are the same whoever draws them.
#[derive(Debug, Clone)]
pub struct CapturedArtifact {
    /// What the bytes are.
    pub kind: ArtifactKind,
    /// 128-bit FNV content hash of the bytes (the blob-store address).
    pub hash: u128,
    body: Body,
}

/// The bytes of a [`CapturedArtifact`], held or still to be drawn.
#[derive(Debug, Clone)]
enum Body {
    Bytes(Vec<u8>),
    Undrawn(Screenshot),
}

impl CapturedArtifact {
    /// An artifact holding its bytes; `hash` is their `fnv128`.
    pub fn new(kind: ArtifactKind, hash: u128, bytes: Vec<u8>) -> CapturedArtifact {
        CapturedArtifact {
            kind,
            hash,
            body: Body::Bytes(bytes),
        }
    }

    /// A screenshot captured as its page source; `hash` is the `fnv128`
    /// of the bytes it draws to.
    pub(crate) fn undrawn(hash: u128, shot: Screenshot) -> CapturedArtifact {
        CapturedArtifact {
            kind: ArtifactKind::Screenshot,
            hash,
            body: Body::Undrawn(shot),
        }
    }

    /// The raw bytes: borrowed when held, drawn and serialized (`CBXBMP1`)
    /// when the screenshot is undrawn.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match &self.body {
            Body::Bytes(bytes) => Cow::Borrowed(bytes),
            Body::Undrawn(shot) => Cow::Owned(shot.render().to_bytes()),
        }
    }

    /// Whether the bytes are held; `false` for an undrawn screenshot,
    /// whose [`bytes`](Self::bytes) draws it.
    pub fn is_drawn(&self) -> bool {
        matches!(self.body, Body::Bytes(_))
    }
}

/// Equal kind, address and bytes; an undrawn side is drawn to compare.
impl PartialEq for CapturedArtifact {
    fn eq(&self, other: &CapturedArtifact) -> bool {
        self.kind == other.kind && self.hash == other.hash && self.bytes() == other.bytes()
    }
}

impl Eq for CapturedArtifact {}

/// The complete scan record of one reported message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanRecord {
    /// Corpus message id.
    pub message_id: usize,
    /// 128-bit FNV content hash of the raw message bytes — the identity
    /// the persistent store dedups and incremental re-scans key on. Zero
    /// for legacy logs written before the store existed.
    #[serde(default)]
    pub content_hash: u128,
    /// Delivery instant (from the message `Date:` header).
    pub delivered_at: SimTime,
    /// Parsed authentication results (§V-C1).
    pub auth_pass: bool,
    /// Resources the parsing phase extracted.
    pub extracted: Vec<ExtractedResource>,
    /// Crawl logs, one per crawled resource.
    pub visits: Vec<VisitLog>,
    /// Message body size in bytes (noise-padding signal).
    pub body_bytes: usize,
    /// Consecutive blank lines in the body (noise-padding signal).
    pub blank_line_run: usize,
    /// The derived §V class.
    pub class: MessageClass,
    /// Set when the scan itself degraded (e.g. a worker panic was isolated
    /// by `scan_all`); the record is then a placeholder, not a crawl.
    #[serde(default)]
    pub error: Option<String>,
    /// Raw artifacts captured for the blob store when artifact capture is
    /// on (the message bytes, screenshots of crawled pages). Never
    /// serialized: the canonical record encoding is identical with capture
    /// on or off, and the bytes live in the content-addressed blob store.
    #[serde(skip)]
    pub artifacts: Vec<CapturedArtifact>,
}

impl ScanRecord {
    /// The first visit that loaded an active phishing page, if any.
    pub fn phish_visit(&self) -> Option<&VisitLog> {
        self.visits
            .iter()
            .find(|v| v.outcome == VisitOutcome::Loaded && v.login_form)
    }

    /// The spear classification of this message, if any visit matched.
    pub fn spear_match(&self) -> Option<SpearMatch> {
        self.visits.iter().find_map(|v| v.spear)
    }

    /// `true` when any extracted resource came from a faulty QR code.
    pub fn has_faulty_qr(&self) -> bool {
        self.extracted.iter().any(|r| {
            matches!(
                r.source,
                crate::extract::ExtractionSource::QrCode { faulty: true }
            )
        })
    }
}

/// Write scan records as JSON Lines — the on-disk crawl log CrawlerBox's
/// logging phase produces ("thoroughly logged … the collected data is
/// enriched", §IV-C).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_jsonl<W: std::io::Write>(
    mut writer: W,
    records: &[ScanRecord],
) -> std::io::Result<()> {
    for r in records {
        cb_json::to_writer(&mut writer, r)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

/// Read scan records back from a JSON Lines stream.
///
/// # Errors
///
/// Returns an error on I/O failure or malformed lines.
pub fn read_jsonl<R: std::io::BufRead>(reader: R) -> std::io::Result<Vec<ScanRecord>> {
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            cb_json::from_str(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractionSource;

    fn empty_visit(url: &str) -> VisitLog {
        VisitLog {
            requested_url: url.to_string(),
            chain: vec![(url.to_string(), 200)],
            outcome: VisitOutcome::Loaded,
            status: 200,
            login_form: false,
            screenshot_hash: None,
            spear: None,
            subresources: Vec::new(),
            exfil: Vec::new(),
            console_hijacked: false,
            debugger_hits: 0,
            gates_solved: Vec::new(),
            domain_registered_at: None,
            registrar: None,
            cert_issued_at: None,
            dns_volume: None,
            banner: None,
            cert_fingerprint: None,
            hue_rotated: false,
            attempts: Vec::new(),
            elapsed: SimDuration::ZERO,
            error: None,
        }
    }

    #[test]
    fn landing_domain_extraction() {
        let mut v = empty_visit("https://a.example/x");
        v.chain
            .push(("https://final.example/land".to_string(), 200));
        assert_eq!(v.final_url(), "https://final.example/land");
        assert_eq!(v.landing_domain().as_deref(), Some("final.example"));
    }

    #[test]
    fn phish_visit_requires_login_form() {
        let mut record = ScanRecord {
            message_id: 0,
            content_hash: 0,
            delivered_at: SimTime::EPOCH,
            auth_pass: true,
            extracted: Vec::new(),
            visits: vec![empty_visit("https://a.example/")],
            body_bytes: 100,
            blank_line_run: 0,
            class: MessageClass::ErrorPage,
            error: None,
            artifacts: Vec::new(),
        };
        assert!(record.phish_visit().is_none());
        record.visits[0].login_form = true;
        assert!(record.phish_visit().is_some());
    }

    #[test]
    fn faulty_qr_detection() {
        let record = ScanRecord {
            message_id: 1,
            content_hash: 0,
            delivered_at: SimTime::EPOCH,
            auth_pass: true,
            extracted: vec![ExtractedResource {
                url: "https://x.example/".into(),
                source: ExtractionSource::QrCode { faulty: true },
            }],
            visits: Vec::new(),
            body_bytes: 10,
            blank_line_run: 0,
            class: MessageClass::NoResource,
            error: None,
            artifacts: Vec::new(),
        };
        assert!(record.has_faulty_qr());
    }

    #[test]
    fn records_serialize() {
        let v = empty_visit("https://a.example/");
        let json = cb_json::to_string(&v).unwrap();
        assert!(json.contains("requested_url"));
    }

    #[test]
    fn jsonl_round_trips() {
        let record = ScanRecord {
            message_id: 7,
            content_hash: 0xDEAD_BEEF,
            delivered_at: SimTime::from_ymd(2024, 5, 2),
            auth_pass: true,
            extracted: vec![ExtractedResource {
                url: "https://x.example/t".into(),
                source: ExtractionSource::BodyText,
            }],
            visits: vec![empty_visit("https://x.example/t")],
            body_bytes: 321,
            blank_line_run: 2,
            class: MessageClass::ActivePhish,
            error: None,
            artifacts: Vec::new(),
        };
        let mut buf = Vec::new();
        write_jsonl(&mut buf, std::slice::from_ref(&record)).unwrap();
        let back = read_jsonl(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].message_id, 7);
        assert_eq!(back[0].class, MessageClass::ActivePhish);
        assert_eq!(back[0].extracted, record.extracted);
    }

    #[test]
    fn legacy_logs_without_fault_fields_still_deserialize() {
        let v = empty_visit("https://a.example/");
        let mut json = cb_json::to_value(&v).unwrap();
        let obj = json.as_object_mut().unwrap();
        obj.remove("attempts");
        obj.remove("elapsed");
        obj.remove("error");
        let back: VisitLog = cb_json::from_value(json).unwrap();
        assert!(back.attempts.is_empty());
        assert_eq!(back.elapsed, SimDuration::ZERO);
        assert!(back.error.is_none());
    }

    #[test]
    fn scan_stats_serialize_and_display() {
        let stats = ScanStats {
            messages: 4,
            artifact_hits: 2,
            page_hits: 3,
            page_misses: 1,
            ..Default::default()
        };
        let json = cb_json::to_string(&stats).unwrap();
        assert!(json.contains("\"artifact_hits\":2"), "{json}");
        let back: ScanStats = cb_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        let shown = stats.to_string();
        assert!(shown.contains("messages 4 "), "{shown}");
        assert!(shown.contains("artifact 2/0"), "{shown}");
        assert!(shown.contains("page 3/1"), "{shown}");
    }

    #[test]
    fn legacy_stats_without_streaming_gauges_still_deserialize() {
        let stats = ScanStats {
            messages: 9,
            peak_in_flight: 5,
            ..Default::default()
        };
        let mut json = cb_json::to_value(stats).unwrap();
        let obj = json.as_object_mut().unwrap();
        obj.remove("peak_in_flight");
        obj.remove("peak_reorder");
        obj.remove("peak_bytes_retained");
        obj.remove("page_hits");
        obj.remove("page_misses");
        let back: ScanStats = cb_json::from_value(json).unwrap();
        assert_eq!(back.messages, 9);
        assert_eq!(back.peak_in_flight, 0);
        assert_eq!(back.peak_reorder, 0);
        assert_eq!(back.peak_bytes_retained, 0);
        assert_eq!((back.page_hits, back.page_misses), (0, 0));
    }

    #[test]
    fn cache_hit_rate_aggregates_all_caches() {
        let stats = ScanStats {
            artifact_hits: 2,
            artifact_misses: 1,
            screenshot_hits: 1,
            screenshot_misses: 0,
            ..Default::default()
        };
        let rate = stats.cache_hit_rate();
        assert!((rate - 3.0 / 4.0).abs() < 1e-12, "{rate}");
        assert_eq!(ScanStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(read_jsonl(std::io::BufReader::new(&b"not json\n"[..])).is_err());
    }
}
