#![warn(missing_docs)]

//! # CrawlerBox
//!
//! The paper's contribution, reproduced: an analysis infrastructure for
//! evasive phishing emails. The pipeline (Figure 1) has three phases:
//!
//! 1. **Parsing** ([`extract`]): every MIME part is processed recursively —
//!    URLs are pulled from text and HTML, images are scanned for QR codes
//!    and OCR'd text, PDFs yield link annotations *and* per-page
//!    screenshots that re-enter the image path, octet-streams are sniffed
//!    by magic numbers, ZIPs are unpacked, EMLs recurse.
//! 2. **Crawling** ([`pipeline`]): every extracted resource is visited with
//!    **NotABot** (the evasive crawler of `cb-browser`), following
//!    redirects, executing page scripts, solving the gates custom code can
//!    solve, and screenshotting the final page.
//! 3. **Logging & analysis** ([`logging`], [`classify`], [`analysis`]):
//!    visits are enriched with WHOIS / CT-log / passive-DNS data, spear
//!    phishing is classified by pHash+dHash similarity to the five
//!    companies' login pages, and the [`analysis`] modules regenerate every
//!    table, figure and headline statistic of the paper.
//!
//! # Example
//!
//! ```
//! use cb_phishgen::{Corpus, CorpusSpec};
//! use crawlerbox::pipeline::CrawlerBox;
//!
//! let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(0.01), 7);
//! let cbx = CrawlerBox::new(&corpus.world);
//! let records = cbx.scan_all(&corpus.messages);
//! assert_eq!(records.len(), corpus.messages.len());
//! ```

pub mod analysis;
pub mod classify;
pub mod extract;
pub mod logging;
pub mod pipeline;
pub mod pool;
pub mod sink;
pub mod tasks;

pub use cb_telemetry::{ExportMode, MetricsRegistry, Trace};
pub use classify::SpearClassifier;
pub use extract::{
    extract_resources, extract_resources_memo, ArtifactMemo, ExtractedResource, ExtractionSource,
};
pub use logging::{ArtifactKind, CapturedArtifact, ScanRecord, ScanStats, VisitLog};
pub use pipeline::{message_content_hash, CrawlerBox, ProbeSession, ScanPolicy};
pub use pool::run_stealing;
pub use sink::{
    ClassMixSink, CountingSink, EncodedSink, NoopEncoder, RecordEncoder, RecordSink, TruthLedger,
};
pub use tasks::{route_shard, TaskRegistry, TaskSnapshot, TaskState};
