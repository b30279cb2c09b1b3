//! The CrawlerBox pipeline: parse → crawl → log → classify, per Figure 1.
//!
//! Crawling uses NotABot by default ("given that the detection of automated
//! tools follows a continuous adversarial cycle, CrawlerBox has been
//! designed with a modular architecture, allowing for interchangeable use
//! of the crawling component") — [`CrawlerBox::with_profile`] swaps it.

use crate::classify::{SpearClassifier, SpearMatch};
use crate::extract::{extract_resources_memo, ArtifactMemo};
use crate::logging::{ArtifactKind, AttemptLog, CapturedArtifact, ScanRecord, ScanStats, VisitLog};
use crate::sink::{EncodedSink, RecordEncoder, RecordSink};
use cb_artifacts::{fingerprint, Bitmap};
use cb_browser::engine::VisitOutcome;
use cb_browser::{Browser, CrawlerProfile, Screenshot, Visit, DEFAULT_VISIT_BUDGET};
use cb_email::MimeEntity;
use cb_imagehash::HashPair;
use cb_netsim::{HostEnrichment, Internet, Url};
use cb_phishgen::{MessageClass, ReportedMessage};
use cb_sim::{SeedFork, SimDuration, SimTime};
use cb_telemetry::{
    CounterHandle, Determinism, ExportMode, GaugeHandle, HistogramHandle, MetricsRegistry, Trace,
    Tracer,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock, TryLockError};

/// The content identity of a reported message: the 128-bit FNV hash of its
/// raw wire bytes. This is the key the persistent store dedups on and the
/// incremental-scan filter ([`CrawlerBox::with_known_hashes`]) matches
/// against — identical bytes, identical hash, on every platform.
pub fn message_content_hash(raw: &str) -> u128 {
    fingerprint::fnv128(raw.as_bytes())
}

/// Seed for the supervisor's deterministic backoff jitter. Jitter is a pure
/// function of `(url, attempt)`, so serial and parallel scans wait — and
/// therefore observe — exactly the same things.
const JITTER_SEED: u64 = 0xCB_5CAB;

/// Knobs of the resilient crawl supervisor. Defaults preserve the
/// pre-policy pipeline behaviour on a reliable network and add bounded
/// recovery under fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPolicy {
    /// Crawl at most this many distinct URLs per message.
    pub max_urls_per_message: usize,
    /// Retries after the first attempt of a visit that saw transient
    /// faults. Zero disables supervision (the degradation baseline).
    pub max_retries: u32,
    /// First backoff delay; doubles every retry.
    pub backoff_base: SimDuration,
    /// Ceiling on a single backoff delay.
    pub backoff_cap: SimDuration,
    /// Simulated-time budget for one supervised visit, attempts and
    /// backoff waits included.
    pub visit_budget: SimDuration,
    /// Consecutive failed visits to one host that trip its circuit
    /// breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before half-opening for a
    /// probe visit.
    pub breaker_cooldown: SimDuration,
}

impl Default for ScanPolicy {
    fn default() -> ScanPolicy {
        ScanPolicy {
            max_urls_per_message: 4,
            max_retries: 3,
            backoff_base: SimDuration::seconds(2),
            backoff_cap: SimDuration::seconds(60),
            visit_budget: DEFAULT_VISIT_BUDGET,
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::seconds(60),
        }
    }
}

impl ScanPolicy {
    /// Set the per-message URL ceiling.
    pub fn with_max_urls(mut self, n: usize) -> ScanPolicy {
        self.max_urls_per_message = n;
        self
    }

    /// Set the retry ceiling (0 = no supervision).
    pub fn with_max_retries(mut self, n: u32) -> ScanPolicy {
        self.max_retries = n;
        self
    }

    /// Set the backoff base and cap.
    pub fn with_backoff(mut self, base: SimDuration, cap: SimDuration) -> ScanPolicy {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Set the per-visit simulated-time budget.
    pub fn with_visit_budget(mut self, budget: SimDuration) -> ScanPolicy {
        self.visit_budget = budget;
        self
    }

    /// Set the circuit-breaker trip threshold and cooldown.
    pub fn with_breaker(mut self, threshold: u32, cooldown: SimDuration) -> ScanPolicy {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// The deterministic backoff before retry `attempt` (1-based): capped
    /// exponential plus URL-keyed jitter, floored by any `Retry-After` the
    /// server sent.
    fn backoff(&self, url: &str, attempt: u32, retry_after: Option<u32>) -> SimDuration {
        let doublings = i64::from(attempt.saturating_sub(1).min(16));
        let exp = self.backoff_base * (1i64 << doublings);
        let base = exp.min(self.backoff_cap);
        let jitter_span = self.backoff_base.as_seconds().max(1);
        let jitter =
            SeedFork::new(JITTER_SEED).seed(&format!("{url}#{attempt}")) % (jitter_span as u64 + 1);
        let delay = base + SimDuration::seconds(jitter as i64);
        match retry_after {
            Some(ra) => delay.max(SimDuration::seconds(i64::from(ra))),
            None => delay,
        }
    }
}

/// Scan-local mutable state threaded through one message's crawls: the
/// circuit-breaker bank plus the captured artifacts. Both are scoped to a
/// single [`CrawlerBox::scan`] call, so concurrent scans share nothing and
/// `scan_all` stays bit-identical to serial scanning.
struct ScanCtx<'p> {
    breakers: BreakerBank<'p>,
    /// Artifacts captured for the blob store (message, screenshots), in
    /// deterministic order: the message first, then one entry per
    /// screenshot in visit order. Empty unless capture is enabled.
    artifacts: Vec<CapturedArtifact>,
}

impl<'p> ScanCtx<'p> {
    fn new(policy: &'p ScanPolicy) -> ScanCtx<'p> {
        ScanCtx {
            breakers: BreakerBank::new(policy),
            artifacts: Vec::new(),
        }
    }
}

/// Supervision state for a sequence of adaptive probe visits — a scan's
/// [`ScanCtx`], held open across visits instead of scoped to one message.
/// Created by [`CrawlerBox::probe_session`], consumed by
/// [`CrawlerBox::probe`].
pub struct ProbeSession<'p> {
    ctx: ScanCtx<'p>,
}

/// Per-scan circuit-breaker bank: consecutive-failure counts and open/half-
/// open state per host, on a scan-local simulated timeline. Scan-local
/// state keeps `scan_all` deterministic — concurrent scans never share
/// breaker history.
struct BreakerBank<'p> {
    policy: &'p ScanPolicy,
    /// Simulated time this scan has consumed so far (visit latency plus
    /// backoff waits) — the timeline cooldowns are measured on.
    elapsed: SimDuration,
    hosts: HashMap<String, HostBreaker>,
}

#[derive(Default)]
struct HostBreaker {
    consecutive: u32,
    open_until: Option<SimDuration>,
    half_open: bool,
}

impl<'p> BreakerBank<'p> {
    fn new(policy: &'p ScanPolicy) -> BreakerBank<'p> {
        BreakerBank {
            policy,
            elapsed: SimDuration::ZERO,
            hosts: HashMap::new(),
        }
    }

    /// Advance the scan-local timeline.
    fn elapse(&mut self, d: SimDuration) {
        self.elapsed = self.elapsed + d;
    }

    /// May we visit `host` now? An open breaker rejects until its cooldown
    /// passes, then half-opens: one probe visit is allowed, and its result
    /// decides whether the breaker closes or re-opens.
    fn allow(&mut self, host: &str) -> bool {
        let b = self.hosts.entry(host.to_string()).or_default();
        match b.open_until {
            Some(until) if self.elapsed < until => false,
            Some(_) => {
                b.open_until = None;
                b.half_open = true;
                true
            }
            None => true,
        }
    }

    /// Record the outcome of a supervised visit to `host`.
    fn record(&mut self, host: &str, ok: bool) {
        let threshold = self.policy.breaker_threshold.max(1);
        let cooldown = self.policy.breaker_cooldown;
        let now = self.elapsed;
        let b = self.hosts.entry(host.to_string()).or_default();
        if ok {
            b.consecutive = 0;
            b.half_open = false;
        } else {
            b.consecutive += 1;
            if b.half_open || b.consecutive >= threshold {
                b.open_until = Some(now + cooldown);
                b.half_open = false;
            }
        }
    }
}

/// A cached screenshot analysis: the perceptual/crypto hash pair plus the
/// raw spear-classifier verdict (before the login-form filter, which
/// depends on the page rather than the pixels).
type ShotAnalysis = (HashPair, Option<SpearMatch>);

/// Bucket bounds (inclusive upper edges, sim-seconds) for the supervised
/// visit-latency histogram: visits range from instant loads to
/// budget-exhausted retry chains.
const VISIT_LATENCY_BOUNDS: &[i64] = &[0, 1, 2, 5, 10, 30, 60, 120, 300, 900, 1800];
/// Bucket bounds (sim-seconds) for backoff waits: exponential from the
/// 2-second base up to the policy cap plus `Retry-After` floors.
const BACKOFF_BOUNDS: &[i64] = &[0, 2, 4, 8, 16, 32, 64, 120, 300];
/// Bucket bounds (entries) for the streaming reorder buffer's depth.
const REORDER_DEPTH_BOUNDS: &[i64] = &[1, 2, 4, 8, 16, 32, 64];
/// Bucket bounds (bytes) for streaming-window residency samples.
const BYTES_WINDOW_BOUNDS: &[i64] = &[1024, 4096, 16384, 65536, 262144, 1048576];

/// A worker's encoding of one record, or the panic its encoder raised.
type Encoded<E> = std::thread::Result<<E as RecordEncoder>::Encoded>;

/// One scanned message on its way to delivery: its raw byte count (for the
/// residency gauges), its record and the record's encoding.
type Scanned<E> = (u64, ScanRecord, Encoded<E>);

/// What one attempt at admission to the scan engine found.
enum Admission<T> {
    /// A token and the next message, numbered in message order.
    Message(T),
    /// The input has run dry, or the token sender is gone because the
    /// caller is unwinding.
    Dry,
    /// Nothing could be admitted without waiting: another worker holds the
    /// input lock, or every token is out.
    Busy,
}

/// Take a token and then the next message from the engine's shared input.
/// With `wait` (a helper) this blocks on the lock and on a token; without
/// it (the calling thread) it never blocks and answers
/// [`Busy`](Admission::Busy) instead.
fn admit<I: Iterator>(input: &Mutex<(mpsc::Receiver<()>, I)>, wait: bool) -> Admission<I::Item> {
    let mut guard = if wait {
        input.lock().unwrap_or_else(PoisonError::into_inner)
    } else {
        match input.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return Admission::Busy,
        }
    };
    let (tokens, messages) = &mut *guard;
    let token = if wait {
        tokens.recv().ok()
    } else {
        match tokens.try_recv() {
            Ok(()) => Some(()),
            Err(mpsc::TryRecvError::Empty) => return Admission::Busy,
            Err(mpsc::TryRecvError::Disconnected) => None,
        }
    };
    match token.and_then(|()| messages.next()) {
        Some(message) => Admission::Message(message),
        None => Admission::Dry,
    }
}

/// Pre-fetched registry handles for the pipeline's hot paths (an atomic op
/// each, no registry lookup). This supersedes the old ad-hoc `Counters`
/// atomics: every instrument now lives in the [`MetricsRegistry`] under a
/// stable name with a determinism class, and [`CrawlerBox::stats`] reads
/// the same handles, so `ScanStats` values are unchanged.
struct PipelineMetrics {
    messages: CounterHandle,
    /// Messages skipped by the incremental-scan filter (content hash
    /// already recorded in a reopened store).
    skipped: CounterHandle,
    faults: CounterHandle,
    artifact_hits: CounterHandle,
    artifact_misses: CounterHandle,
    shot_hits: CounterHandle,
    shot_misses: CounterHandle,
    page_hits: CounterHandle,
    page_misses: CounterHandle,
    /// Messages admitted to a streaming scan and not yet delivered (the
    /// peak is `ScanStats::peak_in_flight`).
    in_flight: GaugeHandle,
    /// Raw message bytes resident in the streaming window.
    bytes_retained: GaugeHandle,
    /// Streaming reorder-buffer depth (peak only; the level lives in the
    /// engine's `BTreeMap` on the calling thread).
    reorder: GaugeHandle,
    visit_latency: HistogramHandle,
    backoff_waited: HistogramHandle,
    reorder_depth: HistogramHandle,
    bytes_window: HistogramHandle,
}

impl PipelineMetrics {
    /// Register every pipeline instrument. Classes follow the determinism
    /// contract: scan-local facts (message counts, fault observations,
    /// sim-time latency and backoff) are `Deterministic`; anything
    /// depending on thread interleaving (shared artifact/screenshot caches,
    /// streaming residency) is `Advisory` and excluded from canonical
    /// exports.
    fn register(reg: &MetricsRegistry) -> PipelineMetrics {
        use Determinism::{Advisory, Deterministic};
        PipelineMetrics {
            messages: reg.counter("scan.messages", Deterministic),
            skipped: reg.counter("scan.skipped_known", Deterministic),
            faults: reg.counter("net.faults_observed", Deterministic),
            artifact_hits: reg.counter("cache.artifact.hits", Advisory),
            artifact_misses: reg.counter("cache.artifact.misses", Advisory),
            shot_hits: reg.counter("cache.screenshot.hits", Advisory),
            shot_misses: reg.counter("cache.screenshot.misses", Advisory),
            page_hits: reg.counter("cache.page.hits", Advisory),
            page_misses: reg.counter("cache.page.misses", Advisory),
            in_flight: reg.gauge("stream.in_flight", Advisory),
            bytes_retained: reg.gauge("stream.bytes_retained", Advisory),
            reorder: reg.gauge("stream.reorder", Advisory),
            visit_latency: reg.histogram("visit.latency_s", Deterministic, VISIT_LATENCY_BOUNDS),
            backoff_waited: reg.histogram("visit.backoff_s", Deterministic, BACKOFF_BOUNDS),
            reorder_depth: reg.histogram("stream.reorder_depth", Advisory, REORDER_DEPTH_BOUNDS),
            bytes_window: reg.histogram("stream.bytes_window", Advisory, BYTES_WINDOW_BOUNDS),
        }
    }
}

/// The analysis infrastructure.
pub struct CrawlerBox<'a> {
    world: &'a Internet,
    browser: Browser,
    /// Fallback crawler components tried when the primary sees nothing
    /// malicious — the paper's future-work item ("for future work, we
    /// consider expanding CrawlerBox by integrating [Nodriver and
    /// Selenium-Driverless]; diversifying crawler components … can only be
    /// beneficial"), implemented.
    fallbacks: Vec<Browser>,
    classifier: SpearClassifier,
    policy: ScanPolicy,
    /// Scanning threads for [`scan_all`](Self::scan_all) and the streaming
    /// scans, the calling thread included: the engine spawns at most
    /// `parallelism − 1`. Records are bit-identical at every worker count.
    pub parallelism: usize,
    /// Content-keyed artifact-decode cache, shared across the box's whole
    /// lifetime (values depend only on artifact bytes).
    artifacts: ArtifactMemo,
    /// Screenshot blob address (`fnv128` of `Bitmap::to_bytes`) → analysis
    /// cache. Values depend only on pixels, so the cache is batch-wide
    /// like the artifact memo. Pages that differ only in invisible bytes
    /// (scripts, metadata) share one address and so one entry.
    shots: RwLock<HashMap<u128, ShotAnalysis>>,
    /// Page key ([`Screenshot::key`], `fnv128` of the page source) → blob
    /// address: the first level of the screenshot lookup. The pixels are a
    /// pure function of the source, so a hit knows the address without
    /// rasterizing or hashing the 460 KB bitmap.
    pages: RwLock<HashMap<u128, u128>>,
    /// Admission slack of the scan engine: how many messages may be
    /// admitted beyond the one each worker is scanning. Total residency is
    /// `stream_capacity + parallelism` messages.
    stream_capacity: usize,
    /// Capture raw artifacts (message bytes, screenshots) on each record
    /// for the content-addressed blob store. Off by default: capture never
    /// changes the record's canonical encoding, only whether
    /// `ScanRecord::artifacts` is populated.
    capture_artifacts: bool,
    /// Content hashes of messages already recorded in a reopened store.
    /// `scan_stream` skips these without scanning (incremental re-scan);
    /// batch `scan_all` ignores the set to preserve its one-record-per-
    /// message contract.
    known: Option<HashSet<u128>>,
    /// Named-instrument registry backing [`stats`](Self::stats) and the
    /// metrics exports (DESIGN.md §10). Shared (`Arc`) so a daemon can
    /// hand every worker's box the same registry and export one merged
    /// view — get-or-create semantics make re-registration idempotent.
    metrics: Arc<MetricsRegistry>,
    /// Pre-fetched handles into `metrics` for hot paths.
    m: PipelineMetrics,
    /// Span tracer over sim time; off by default, enabled via
    /// [`with_tracing`](Self::with_tracing).
    tracer: Tracer,
}

impl<'a> CrawlerBox<'a> {
    /// A CrawlerBox crawling `world` with NotABot.
    pub fn new(world: &'a Internet) -> CrawlerBox<'a> {
        let metrics = Arc::new(MetricsRegistry::new());
        let m = PipelineMetrics::register(&metrics);
        let artifacts =
            ArtifactMemo::with_counters(m.artifact_hits.clone(), m.artifact_misses.clone());
        CrawlerBox {
            world,
            browser: Browser::new(CrawlerProfile::NotABot),
            fallbacks: Vec::new(),
            classifier: SpearClassifier::new(),
            policy: ScanPolicy::default(),
            parallelism: 4,
            artifacts,
            shots: RwLock::new(HashMap::new()),
            pages: RwLock::new(HashMap::new()),
            stream_capacity: 32,
            capture_artifacts: false,
            known: None,
            metrics,
            m,
            tracer: Tracer::new(false),
        }
    }

    /// Set the streaming admission-window bound (clamped to ≥ 1). Smaller
    /// values trade throughput for memory; the default of 32 keeps all
    /// workers fed on skewed batches.
    pub fn with_stream_capacity(mut self, capacity: usize) -> CrawlerBox<'a> {
        self.stream_capacity = capacity.max(1);
        self
    }

    /// The streaming admission-window bound.
    pub fn stream_capacity(&self) -> usize {
        self.stream_capacity
    }

    /// Enable or disable raw-artifact capture: when on, every record
    /// carries the message's raw bytes and each visit's screenshot in
    /// [`ScanRecord::artifacts`], ready for a content-addressed blob
    /// store. A screenshot whose page key the box has seen is captured
    /// undrawn (see [`CapturedArtifact`]). Capture never alters the
    /// record's canonical (serialized) encoding.
    pub fn with_artifact_capture(mut self, on: bool) -> CrawlerBox<'a> {
        self.capture_artifacts = on;
        self
    }

    /// Install the incremental-scan filter: messages whose
    /// [`message_content_hash`] is in `known` are skipped by
    /// [`scan_stream`](Self::scan_stream) without being scanned or
    /// delivered (counted in [`ScanStats::skipped_known`]). Feed it
    /// `Store::known_hashes()` from a reopened store to turn a repeated
    /// run into a cheap delta scan.
    pub fn with_known_hashes(mut self, known: HashSet<u128>) -> CrawlerBox<'a> {
        self.known = Some(known);
        self
    }

    /// Scan, cache and streaming counters accumulated over this box's lifetime,
    /// read from the metrics registry (the artifact memo shares the
    /// registry's `cache.artifact.*` handles, so its traffic shows up here
    /// unchanged).
    pub fn stats(&self) -> ScanStats {
        ScanStats {
            messages: self.m.messages.get(),
            artifact_hits: self.m.artifact_hits.get(),
            artifact_misses: self.m.artifact_misses.get(),
            screenshot_hits: self.m.shot_hits.get(),
            screenshot_misses: self.m.shot_misses.get(),
            page_hits: self.m.page_hits.get(),
            page_misses: self.m.page_misses.get(),
            peak_in_flight: self.m.in_flight.peak(),
            peak_reorder: self.m.reorder.peak(),
            peak_bytes_retained: self.m.bytes_retained.peak(),
            skipped_known: self.m.skipped.get(),
            store_dropped: 0,
        }
    }

    /// The incremental-scan filter: `true` (and counted) when `message`'s
    /// content hash is already known and the stream should not scan it.
    fn skip_known(&self, message: &ReportedMessage) -> bool {
        let Some(known) = &self.known else {
            return false;
        };
        if known.contains(&message_content_hash(&message.raw)) {
            self.m.skipped.incr();
            true
        } else {
            false
        }
    }

    /// Enable or disable span tracing (affects scans started afterwards;
    /// the metrics registry always records).
    pub fn with_tracing(mut self, on: bool) -> CrawlerBox<'a> {
        self.tracer.set_enabled(on);
        self
    }

    /// Drain everything traced so far into a message-ordered [`Trace`]
    /// ready for JSONL or Chrome `trace_event` export.
    pub fn take_trace(&self) -> Trace {
        self.tracer.take()
    }

    /// The metrics registry (counters, gauges, histograms by name).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Record into a shared registry instead of a private one. Instruments
    /// are get-or-create by name, so several boxes pointed at the same
    /// registry accumulate into the same counters — this is how the
    /// daemon's shard workers produce one `/metrics` view. Pre-fetched
    /// handles (and the artifact memo's hit/miss counters) are rebound to
    /// the new registry.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> CrawlerBox<'a> {
        self.m = PipelineMetrics::register(&metrics);
        self.artifacts = ArtifactMemo::with_counters(
            self.m.artifact_hits.clone(),
            self.m.artifact_misses.clone(),
        );
        self.metrics = metrics;
        self
    }

    /// Export the metrics registry as JSON. [`ExportMode::Canonical`] is
    /// byte-identical across worker counts for a fixed seed and config.
    pub fn export_metrics(&self, mode: ExportMode) -> String {
        self.metrics.export_json(mode)
    }

    /// Swap the crawler component (the modular-crawler design point).
    pub fn with_profile(mut self, profile: CrawlerProfile) -> CrawlerBox<'a> {
        self.browser = Browser::new(profile);
        self
    }

    /// Replace the scan policy (retry/backoff/breaker/URL-ceiling knobs).
    pub fn with_policy(mut self, policy: ScanPolicy) -> CrawlerBox<'a> {
        self.policy = policy;
        self
    }

    /// The active scan policy.
    pub fn policy(&self) -> &ScanPolicy {
        &self.policy
    }

    /// Add fallback crawler components, tried in order when the primary
    /// crawler reaches no phishing content for a URL.
    pub fn with_fallbacks(mut self, profiles: &[CrawlerProfile]) -> CrawlerBox<'a> {
        self.fallbacks = profiles.iter().map(|p| Browser::new(*p)).collect();
        self
    }

    /// The active crawler profile.
    pub fn profile(&self) -> CrawlerProfile {
        self.browser.profile()
    }

    /// Open a probe session: the supervision state (per-host circuit
    /// breakers) shared by every [`probe`](Self::probe) made through it.
    /// A multi-visit adaptive race accumulates breaker state across its
    /// visits the way one scan's URLs do, while staying isolated from
    /// every other concurrently running race — the same scan-local-state
    /// rule that keeps `scan_all` bit-identical across worker counts.
    pub fn probe_session(&self) -> ProbeSession<'_> {
        ProbeSession {
            ctx: ScanCtx::new(&self.policy),
        }
    }

    /// One supervised visit with an arbitrary `browser` — the adaptive
    /// crawler's entry into the scan machinery. The visit flows through the
    /// exact retry/backoff/budget/circuit-breaker supervisor scans use, so
    /// adaptive re-visits inherit transient-fault recovery unchanged.
    /// `message_text` is the lure body the gate solver may mine for
    /// out-of-band codes; pass `""` to probe without interaction context.
    pub fn probe(
        &self,
        session: &mut ProbeSession<'_>,
        browser: &Browser,
        url: &str,
        message_text: &str,
    ) -> VisitLog {
        let delivered_at = self.world.now();
        self.crawl_with(browser, url, message_text, delivered_at, &mut session.ctx)
    }

    /// Install this box's tracer as the active collector for a probe task,
    /// the way scans install it per message: pipeline spans emitted while
    /// the guard lives land in the task's trace group. `None` when tracing
    /// is off.
    pub fn trace_task(&self, task_id: usize) -> Option<cb_telemetry::ScanTraceGuard> {
        self.tracer.message(task_id)
    }

    /// Scan one reported message end to end.
    pub fn scan(&self, message: &ReportedMessage) -> ScanRecord {
        cb_telemetry::with_active(|t| {
            t.begin("parse", vec![("bytes", message.raw.len().to_string())])
        });
        let parsed = MimeEntity::parse(&message.raw).ok();
        cb_telemetry::with_active(|t| {
            t.instant("parse.result", vec![("ok", parsed.is_some().to_string())]);
            t.end();
        });
        cb_telemetry::with_active(|t| t.begin("extract", Vec::new()));
        let (extracted, auth_pass, blank_line_run, delivered_at) = match &parsed {
            Some(msg) => (
                extract_resources_memo(msg, Some(&self.artifacts)),
                msg.header("Authentication-Results")
                    .map(|v| {
                        v.contains("spf=pass")
                            && v.contains("dkim=pass")
                            && v.contains("dmarc=pass")
                    })
                    .unwrap_or(false),
                blank_run(msg),
                msg.header("Date")
                    .and_then(parse_date)
                    .unwrap_or(message.delivered_at),
            ),
            None => (Vec::new(), false, 0, message.delivered_at),
        };
        cb_telemetry::with_active(|t| {
            // Per-kind resource counts in name order (BTreeMap): same
            // extraction, same instants, at every worker count.
            let mut kinds: std::collections::BTreeMap<&'static str, usize> =
                std::collections::BTreeMap::new();
            for r in &extracted {
                *kinds.entry(r.source.label()).or_default() += 1;
            }
            for (kind, n) in kinds {
                t.instant(
                    "extract.kind",
                    vec![("kind", kind.to_string()), ("count", n.to_string())],
                );
            }
            t.instant(
                "extract.done",
                vec![
                    ("resources", extracted.len().to_string()),
                    ("auth_pass", auth_pass.to_string()),
                ],
            );
            t.end();
        });

        // Crawl distinct URLs (first occurrence order). Breaker state is
        // scoped to this scan: concurrent scans share nothing mutable with
        // attempt-dependent inputs, which keeps `scan_all` bit-identical to
        // serial scanning.
        let mut urls: Vec<&str> = Vec::new();
        for r in &extracted {
            if !urls.contains(&r.url.as_str()) {
                urls.push(&r.url);
            }
            if urls.len() >= self.policy.max_urls_per_message {
                break;
            }
        }
        let full_text = parsed.as_ref().map(collect_text).unwrap_or_default();
        // One hash serves as the record's content identity and as the
        // captured message's blob address.
        let content_hash = message_content_hash(&message.raw);
        let mut ctx = ScanCtx::new(&self.policy);
        if self.capture_artifacts {
            ctx.artifacts.push(CapturedArtifact::new(
                ArtifactKind::Message,
                content_hash,
                message.raw.clone().into_bytes(),
            ));
        }
        let visits: Vec<VisitLog> = urls
            .iter()
            .map(|u| self.crawl_one(u, &full_text, delivered_at, &mut ctx))
            .collect();

        let class = derive_class(&extracted, &visits);
        cb_telemetry::with_active(|t| {
            t.instant("scan.class", vec![("class", format!("{class:?}"))])
        });
        ScanRecord {
            message_id: message.id,
            content_hash,
            delivered_at,
            auth_pass,
            extracted,
            visits,
            body_bytes: message.raw.len(),
            blank_line_run,
            class,
            error: None,
            artifacts: ctx.artifacts,
        }
    }

    /// Scan one message with panic isolation: if anything inside the scan
    /// panics, the panic is caught and a degraded [`ScanRecord`] with
    /// `error` provenance is returned instead of unwinding the caller.
    pub fn scan_caught(&self, message: &ReportedMessage) -> ScanRecord {
        // The guard outlives the catch: a panicking scan still produces a
        // trace (with whatever spans it opened auto-closed) plus a
        // `scan.panic` instant carrying the panic text.
        let _trace = self.tracer.message(message.id);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.scan(message)))
            .unwrap_or_else(|payload| {
                let reason = panic_text(payload.as_ref());
                cb_telemetry::with_active(|t| {
                    t.instant("scan.panic", vec![("reason", reason.clone())])
                });
                degraded_record(message, &reason)
            })
    }

    /// Scan a batch in parallel, preserving order. A panicking message
    /// yields a degraded record (`error` set) without disturbing the rest
    /// of the batch: the result always has exactly one record per message,
    /// and every record is bit-identical across worker counts.
    ///
    /// This is the streaming engine collecting into a `Vec`: it applies no
    /// incremental-scan filter and traces no deliveries.
    pub fn scan_all(&self, messages: &[ReportedMessage]) -> Vec<ScanRecord> {
        let mut out = Vec::with_capacity(messages.len());
        self.run_engine(messages.iter(), &crate::sink::NoopEncoder, |record, ()| {
            out.push(record)
        });
        out
    }

    /// Scan a lazily produced message stream with bounded memory, delivering
    /// records to `sink` in message order. Returns the number of records
    /// delivered.
    ///
    /// This is the streaming counterpart of [`scan_all`](Self::scan_all):
    /// the same engine, the same per-record bytes (records are
    /// bit-identical to a batch scan of the same messages), but peak
    /// residency is bounded by `stream_capacity + parallelism` messages
    /// instead of O(corpus), and messages the incremental-scan filter
    /// ([`with_known_hashes`](Self::with_known_hashes)) knows are skipped.
    /// A panicking message still yields exactly one degraded record,
    /// exactly as in batch mode.
    ///
    /// The sink runs on the calling thread and needs no thread-safety; the
    /// message iterator is shared by the scan workers and must be `Send`.
    pub fn scan_stream<I, S>(&self, messages: I, sink: &mut S) -> usize
    where
        I: IntoIterator<Item = ReportedMessage>,
        I::IntoIter: Send,
        S: RecordSink,
    {
        self.scan_stream_encoded(messages, &crate::sink::NoopEncoder, sink)
    }

    /// [`scan_stream`](Self::scan_stream) with producer-side encoding: each
    /// scan worker runs `encoder` on the record it just produced, and the
    /// sink receives the record *and* the worker-built encoding, still in
    /// message order on the calling thread.
    ///
    /// This is how CPU-heavy sink preparation (canonical serialization,
    /// content checksums, frame building) moves out of delivery: the sink
    /// only routes bytes the workers already encoded. The plain
    /// [`RecordSink`] path is this pipeline with
    /// [`NoopEncoder`](crate::sink::NoopEncoder), so both entry points
    /// share one delivery engine.
    pub fn scan_stream_encoded<I, E, S>(&self, messages: I, encoder: &E, sink: &mut S) -> usize
    where
        I: IntoIterator<Item = ReportedMessage>,
        I::IntoIter: Send,
        E: RecordEncoder,
        S: EncodedSink<E::Encoded>,
    {
        // The filter runs before the engine numbers the messages: delivery
        // indexes must stay gap-free or the reorder buffer would wait
        // forever on a skipped message's index.
        let messages = messages.into_iter().filter(|m| !self.skip_known(m));
        let mut delivered = 0usize;
        self.run_engine(messages, encoder, |record, encoded| {
            let mid = record.message_id;
            sink.accept_encoded(record, encoded);
            self.tracer
                .delivery(mid, vec![("order", delivered.to_string())]);
            delivered += 1;
        });
        delivered
    }

    /// The one scan engine. The calling thread is worker 0: it admits,
    /// scans and encodes messages itself, and it also runs the reorder
    /// buffer and `deliver`, in message order. `workers − 1` scoped helper
    /// threads scan beside it and hand their records over a bounded output
    /// channel. No more workers run than the iterator can yield, so a
    /// one-message burst, like any call at `parallelism` 1, runs entirely
    /// on the calling thread and spawns nothing.
    ///
    /// Admission is bounded by a window of `stream_capacity + workers`
    /// tokens. A worker takes a token, then the next message; the caller
    /// returns one token per in-order delivery, so a slow scan holds back
    /// admission instead of letting the reorder buffer grow. The token
    /// receiver and the message iterator share one mutex, so messages are
    /// admitted in order without a producer thread.
    ///
    /// Deadlock freedom. The output channel holds the whole window, so a
    /// helper never blocks on a send. Three cases cover every wait:
    ///
    /// * The caller never waits on a token or the input lock: it takes both
    ///   with `try_lock` and `try_recv`. When it can admit nothing, it has
    ///   delivered everything in order and blocks on the output channel
    ///   alone. The head of the order is then neither parked nor on the
    ///   caller. If it was admitted, a helper is scanning it, and scans
    ///   always finish (`scan_caught` catches panics). If not, no admitted
    ///   message holds a token, so the helper holding the lock does not
    ///   wait for one: it admits the head, or finds the input dry and
    ///   exits. A helper waits for a token only while every token is held,
    ///   which puts the head on a helper; it arrives, is delivered and
    ///   frees a token.
    /// * Helpers still spend one token each to learn that the input has run
    ///   dry, and the caller spends one too. There are fewer workers than
    ///   tokens, so every helper exits and the output channel closes; by
    ///   then every record has been delivered.
    /// * A panicking `deliver` still drops the token sender, which the
    ///   caller owns, so helpers waiting for admission wake up and exit
    ///   instead of waiting forever.
    ///
    /// Panics: an encoder panic is caught on its worker and parked in the
    /// record's place, so its index still frees its token; that record is
    /// not delivered, every other one is, and the first such panic is
    /// resumed on the caller once the scope has joined.
    fn run_engine<M, I, E>(
        &self,
        messages: I,
        encoder: &E,
        mut deliver: impl FnMut(ScanRecord, E::Encoded),
    ) where
        M: std::borrow::Borrow<ReportedMessage> + Send,
        I: Iterator<Item = M> + Send,
        E: RecordEncoder,
    {
        let most = messages.size_hint().1.unwrap_or(usize::MAX);
        let workers = self.parallelism.max(1).min(most);
        if workers == 0 {
            return;
        }
        let window = self.stream_capacity + workers;
        let (token_tx, token_rx) = mpsc::sync_channel::<()>(window);
        for _ in 0..window {
            token_tx.send(()).expect("fresh token channel has room");
        }
        let (out_tx, out_rx) = mpsc::sync_channel::<(usize, Scanned<E>)>(window);
        let input = Mutex::new((token_rx, messages.enumerate()));
        let scan = |message: M| -> Scanned<E> {
            let bytes = message.borrow().raw.len() as u64;
            self.m.messages.incr();
            self.note_admitted(bytes);
            let mut record = self.scan_caught(message.borrow());
            let encoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                encoder.encode(&mut record)
            }));
            (bytes, record, encoded)
        };
        let mut encode_panic = None;

        std::thread::scope(|scope| {
            // Owned by the caller, so an unwinding `deliver` drops them.
            let (token_tx, out_rx) = (token_tx, out_rx);
            for w in 1..workers {
                let (input, out_tx, scan) = (&input, out_tx.clone(), &scan);
                scope.spawn(move || {
                    cb_telemetry::set_worker(Some(w));
                    while let Admission::Message((idx, message)) = admit(input, true) {
                        if out_tx.send((idx, scan(message))).is_err() {
                            break;
                        }
                    }
                    cb_telemetry::set_worker(None);
                });
            }
            drop(out_tx);

            // Worker 0: deliver in message order, returning one admission
            // token per delivery; then take a helper's finished record if
            // one is waiting, else scan a message here, else wait for a
            // helper. Ends when the input is dry and every helper is gone.
            let mut reorder: BTreeMap<usize, Scanned<E>> = BTreeMap::new();
            let mut next = 0usize;
            let mut dry = false;
            loop {
                while let Some((bytes, record, encoded)) = reorder.remove(&next) {
                    match encoded {
                        Ok(encoded) => deliver(record, encoded),
                        Err(payload) => {
                            encode_panic.get_or_insert(payload);
                        }
                    }
                    self.note_delivered(bytes);
                    // Never full: the returned token was taken out of it.
                    let _ = token_tx.try_send(());
                    next += 1;
                }
                let ready = match out_rx.try_recv() {
                    Ok(done) => Some(done),
                    Err(_) if dry => None,
                    Err(_) => match admit(&input, false) {
                        Admission::Message((idx, message)) => {
                            // `run_engine` may itself run on a `run_stealing`
                            // worker: keep that thread's worker id.
                            let outer = cb_telemetry::worker();
                            cb_telemetry::set_worker(Some(0));
                            let scanned = scan(message);
                            cb_telemetry::set_worker(outer);
                            Some((idx, scanned))
                        }
                        waiting => {
                            dry = matches!(waiting, Admission::Dry);
                            None
                        }
                    },
                };
                // Nothing admitted without waiting: a helper holds the head
                // of the order, or the input is dry and the helpers finish.
                let (idx, scanned) = match ready {
                    Some(done) => done,
                    None => match out_rx.recv() {
                        Ok(done) => done,
                        Err(_) => break,
                    },
                };
                reorder.insert(idx, scanned);
                self.note_reorder_depth(reorder.len() as u64);
            }
            debug_assert!(reorder.is_empty(), "every admitted record was delivered");
        });
        if let Some(payload) = encode_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Note one message entering the streaming window.
    fn note_admitted(&self, bytes: u64) {
        self.m.in_flight.add(1);
        let retained = self.m.bytes_retained.add(bytes);
        self.m.bytes_window.observe(retained as i64);
    }

    /// Note one record leaving the streaming window (in-order delivery).
    fn note_delivered(&self, bytes: u64) {
        self.m.in_flight.sub(1);
        self.m.bytes_retained.sub(bytes);
    }

    /// Track the reorder buffer's depth (peak gauge + distribution).
    fn note_reorder_depth(&self, depth: u64) {
        self.m.reorder.note(depth);
        self.m.reorder_depth.observe(depth as i64);
    }

    /// Crawl one URL, solving what custom code can solve (math challenges,
    /// and OTP gates when the code is present in the message text). When
    /// the primary crawler sees nothing malicious, fallback components get
    /// a turn — a kit cloaking against one crawler's tells may reveal to
    /// another.
    fn crawl_one(
        &self,
        url: &str,
        message_text: &str,
        delivered_at: SimTime,
        ctx: &mut ScanCtx<'_>,
    ) -> VisitLog {
        let log = self.crawl_with(&self.browser, url, message_text, delivered_at, ctx);
        if log.login_form || log.outcome != cb_browser::engine::VisitOutcome::Loaded {
            return log;
        }
        for fallback in &self.fallbacks {
            let retry = self.crawl_with(fallback, url, message_text, delivered_at, ctx);
            if retry.login_form {
                return retry;
            }
        }
        log
    }

    /// The resilient crawl supervisor: run attempts of
    /// [`CrawlerBox::crawl_gates`] until one completes without transient
    /// faults, retries run out, or the visit budget is spent — backing off
    /// exponentially (deterministic jitter, `Retry-After` honoured) between
    /// attempts, and consulting the per-host circuit breaker first.
    fn crawl_with(
        &self,
        browser: &Browser,
        url: &str,
        message_text: &str,
        delivered_at: SimTime,
        ctx: &mut ScanCtx<'_>,
    ) -> VisitLog {
        // An unparseable URL (possible with corrupted messages) degrades
        // instead of reaching Browser::visit's validity panic.
        let Ok(parsed_url) = Url::parse(url) else {
            cb_telemetry::with_active(|t| {
                t.instant(
                    "visit.skipped",
                    vec![
                        ("url", url.to_string()),
                        ("reason", "unparseable-url".to_string()),
                    ],
                )
            });
            return invalid_url_log(url);
        };
        let host = parsed_url.host;
        if !ctx.breakers.allow(&host) {
            cb_telemetry::with_active(|t| {
                t.instant(
                    "visit.skipped",
                    vec![
                        ("url", url.to_string()),
                        ("reason", "breaker-open".to_string()),
                        ("host", host.clone()),
                    ],
                )
            });
            let mut log = invalid_url_log(url);
            log.error = Some(format!("circuit breaker open for {host}"));
            return log;
        }

        cb_telemetry::with_active(|t| {
            t.begin(
                "visit",
                vec![
                    ("url", url.to_string()),
                    ("profile", format!("{:?}", browser.profile())),
                ],
            )
        });
        let mut attempts: Vec<AttemptLog> = Vec::new();
        let mut total_elapsed = SimDuration::ZERO;
        let mut waited = SimDuration::ZERO;
        let mut attempt: u32 = 0;
        loop {
            cb_telemetry::with_active(|t| t.begin("attempt", vec![("n", attempt.to_string())]));
            let (visit, gates_solved) = self.crawl_gates(browser, url, message_text, attempt);
            total_elapsed = total_elapsed + visit.elapsed;
            ctx.breakers.elapse(visit.elapsed);
            self.m.faults.add(visit.transient_failures.len() as u64);
            attempts.push(AttemptLog {
                attempt,
                failures: visit.transient_failures.clone(),
                waited,
            });
            cb_telemetry::with_active(|t| {
                t.instant(
                    "attempt.result",
                    vec![
                        ("outcome", format!("{:?}", visit.outcome)),
                        ("faults", visit.transient_failures.len().to_string()),
                    ],
                );
                t.end();
            });

            let saw_faults = !visit.transient_failures.is_empty();
            let out_of_retries = attempt >= self.policy.max_retries;
            let out_of_budget = total_elapsed > self.policy.visit_budget;
            if !saw_faults || out_of_retries || out_of_budget {
                ctx.breakers.record(&host, !saw_faults);
                let mut log = self.log_visit(&visit, gates_solved, delivered_at, ctx);
                log.elapsed = total_elapsed;
                if saw_faults {
                    let last = visit.transient_failures.last().cloned().unwrap_or_default();
                    log.error = Some(if out_of_budget {
                        format!(
                            "visit budget exhausted after {} attempts; last fault: {last}",
                            attempts.len()
                        )
                    } else {
                        format!(
                            "transient faults after {} attempts; last fault: {last}",
                            attempts.len()
                        )
                    });
                }
                log.attempts = attempts;
                self.m.visit_latency.observe(total_elapsed.as_seconds());
                cb_telemetry::with_active(|t| {
                    t.instant(
                        "visit.done",
                        vec![
                            ("outcome", format!("{:?}", log.outcome)),
                            ("attempts", log.attempts.len().to_string()),
                            ("elapsed_s", total_elapsed.as_seconds().to_string()),
                        ],
                    );
                    t.end();
                });
                return log;
            }

            attempt += 1;
            waited = self.policy.backoff(url, attempt, visit.retry_after);
            total_elapsed = total_elapsed + waited;
            ctx.breakers.elapse(waited);
            self.m.backoff_waited.observe(waited.as_seconds());
            cb_telemetry::with_active(|t| {
                t.begin(
                    "backoff",
                    vec![("waited_s", waited.as_seconds().to_string())],
                );
                t.advance(waited.as_seconds());
                t.end();
            });
        }
    }

    /// One attempt at a URL: the visit itself plus up to two gate-solving
    /// follow-up visits (all stamped with the same retry index). Transient
    /// faults seen by superseded gate hops carry over into the returned
    /// visit so the supervisor never loses evidence.
    fn crawl_gates(
        &self,
        browser: &Browser,
        url: &str,
        message_text: &str,
        attempt: u32,
    ) -> (Visit, Vec<String>) {
        let budget = self.policy.visit_budget;
        let mut visit = browser.visit_attempt(self.world, url, attempt, budget);
        let mut gates_solved = Vec::new();

        for _gate in 0..2 {
            if visit.outcome != VisitOutcome::InteractionRequired {
                break;
            }
            let Some(kind) = gate_kind(&visit) else {
                break;
            };
            let retry = match kind.as_str() {
                "math" => solve_math(&visit).map(|answer| {
                    with_param(visit.final_url().to_string().as_str(), "answer", &answer)
                }),
                "otp" => find_otp(message_text)
                    .map(|code| with_param(visit.final_url().to_string().as_str(), "otp", &code)),
                _ => None,
            };
            match retry {
                Some(retry_url) => {
                    gates_solved.push(kind);
                    let prior_failures = std::mem::take(&mut visit.transient_failures);
                    let prior_elapsed = visit.elapsed;
                    visit = browser.visit_attempt(self.world, &retry_url, attempt, budget);
                    visit.transient_failures.splice(0..0, prior_failures);
                    visit.elapsed = visit.elapsed + prior_elapsed;
                }
                None => break,
            }
        }

        (visit, gates_solved)
    }

    /// Turn a finished visit into its log entry. Only logged visits reach
    /// here, so only their screenshots are ever rasterized: superseded
    /// retry attempts and solved gate pages are dropped unrendered.
    fn log_visit(
        &self,
        visit: &Visit,
        gates_solved: Vec<String>,
        delivered_at: SimTime,
        ctx: &mut ScanCtx<'_>,
    ) -> VisitLog {
        // Screenshot analysis depends only on the pixels, so it memoizes on
        // the screenshot's blob address; `shot_address` finds that address
        // through the page key. The login-form filter depends on the
        // visited page, not the pixels, and stays outside the cache.
        let (screenshot_hash, spear) = match visit.screenshot.as_ref() {
            None => (None, None),
            Some(shot) => {
                let (address, bitmap) = self.shot_address(shot, ctx);
                // The shared shot cache is cross-message, so hit/miss is an
                // advisory trace fact; the event itself (one per shot) is
                // deterministic.
                let shot_event = |cache: &str| {
                    cb_telemetry::with_active(|t| {
                        t.instant_adv("screenshot", Vec::new(), vec![("cache", cache.to_string())])
                    });
                };
                let cached = self
                    .shots
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&address)
                    .copied();
                let analysis = match cached {
                    Some(a) => {
                        self.m.shot_hits.incr();
                        shot_event("hit");
                        a
                    }
                    None => {
                        self.m.shot_misses.incr();
                        shot_event("miss");
                        let bitmap = bitmap.unwrap_or_else(|| shot.render());
                        let a = (HashPair::of(&bitmap), self.classifier.classify(&bitmap));
                        self.shots
                            .write()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(address, a);
                        a
                    }
                };
                (
                    Some(analysis.0),
                    analysis.1.filter(|_| visit.shows_login_form()),
                )
            }
        };
        let hue_rotated = visit
            .document
            .as_ref()
            .map(|d| {
                ["body", "html"].iter().any(|t| {
                    d.elements(t)
                        .first()
                        .and_then(|n| n.attr("style"))
                        .map(|s| s.contains("hue-rotate"))
                        .unwrap_or(false)
                })
            })
            .unwrap_or(false);

        // WHOIS, CT-log, passive-DNS and banner lookups for the landing
        // host over the 30 days before delivery.
        let HostEnrichment {
            whois,
            first_certificate: cert,
            dns_volume,
            banner,
        } = self
            .world
            .enrich(&visit.final_url().host, delivered_at, SimDuration::days(30));
        // A stable certificate identity for campaign clustering: serial,
        // subject and notBefore hashed together — a pure function of the
        // certificate, so identical across worker counts.
        let cert_fingerprint = cert.as_ref().map(|c| {
            fingerprint::fnv128_iter(
                c.serial
                    .to_be_bytes()
                    .into_iter()
                    .chain(c.domain.to_string().into_bytes())
                    .chain(c.issued_at.as_unix().to_be_bytes()),
            ) as u64
        });

        VisitLog {
            requested_url: visit.requested_url.to_string(),
            chain: visit
                .chain
                .iter()
                .map(|(u, s)| (u.to_string(), *s))
                .collect(),
            outcome: visit.outcome,
            status: visit.status,
            login_form: visit.shows_login_form(),
            screenshot_hash,
            spear,
            subresources: visit
                .subresources
                .iter()
                .map(|(u, s)| (u.to_string(), *s))
                .collect(),
            exfil: visit.exfil.clone(),
            console_hijacked: visit.console_hijacked,
            debugger_hits: visit.debugger_hits,
            gates_solved,
            domain_registered_at: whois.as_ref().map(|w| w.registered_at),
            registrar: whois.map(|w| w.registrar),
            cert_issued_at: cert.map(|c| c.issued_at),
            dns_volume: Some(dns_volume),
            banner,
            cert_fingerprint,
            hue_rotated,
            attempts: Vec::new(),
            elapsed: visit.elapsed,
            error: None,
        }
    }

    /// The blob address of `shot` (`fnv128` of its `CBXBMP1` bytes), found
    /// through the page-key map, plus the bitmap when one was drawn. A
    /// page-key hit draws nothing: with capture on, the scan's artifacts
    /// get the undrawn shot, which the blob store draws only when its pack
    /// lacks the address. A miss draws, serializes and hashes the shot
    /// once and remembers the address; with capture on, the artifacts
    /// keep those bytes.
    fn shot_address(&self, shot: &Screenshot, ctx: &mut ScanCtx<'_>) -> (u128, Option<Bitmap>) {
        let key = shot.key();
        let known = self
            .pages
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        if let Some(address) = known {
            self.m.page_hits.incr();
            if self.capture_artifacts {
                ctx.artifacts
                    .push(CapturedArtifact::undrawn(address, shot.clone()));
            }
            return (address, None);
        }
        self.m.page_misses.incr();
        let bitmap = shot.render();
        let bytes = bitmap.to_bytes();
        let address = fingerprint::fnv128(&bytes);
        self.pages
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, address);
        if self.capture_artifacts {
            ctx.artifacts.push(CapturedArtifact::new(
                ArtifactKind::Screenshot,
                address,
                bytes,
            ));
        }
        (address, Some(bitmap))
    }
}

/// A placeholder log for a URL that was never visited (unparseable, or the
/// host's circuit breaker was open).
fn invalid_url_log(url: &str) -> VisitLog {
    VisitLog {
        requested_url: url.to_string(),
        chain: Vec::new(),
        outcome: VisitOutcome::Unreachable,
        status: 0,
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
        error: Some(format!("not visited: {url}")),
    }
}

/// The degraded record `scan_all` emits for a message whose scan panicked.
fn degraded_record(message: &ReportedMessage, reason: &str) -> ScanRecord {
    ScanRecord {
        message_id: message.id,
        content_hash: message_content_hash(&message.raw),
        delivered_at: message.delivered_at,
        auth_pass: false,
        extracted: Vec::new(),
        visits: Vec::new(),
        body_bytes: message.raw.len(),
        blank_line_run: 0,
        class: MessageClass::NoResource,
        error: Some(format!("scan panicked: {reason}")),
        artifacts: Vec::new(),
    }
}

/// Human-readable text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Derive the §V message class from what the scan observed.
fn derive_class(
    extracted: &[crate::extract::ExtractedResource],
    visits: &[VisitLog],
) -> MessageClass {
    if extracted.is_empty() {
        return MessageClass::NoResource;
    }
    if visits
        .iter()
        .any(|v| v.outcome == VisitOutcome::Loaded && v.login_form)
    {
        return MessageClass::ActivePhish;
    }
    if visits.iter().any(|v| v.outcome == VisitOutcome::Download) {
        return MessageClass::Download;
    }
    if visits
        .iter()
        .any(|v| v.outcome == VisitOutcome::InteractionRequired)
    {
        return MessageClass::InteractionRequired;
    }
    MessageClass::ErrorPage
}

/// The gate kind marker on the final page.
fn gate_kind(visit: &Visit) -> Option<String> {
    visit.document.as_ref().and_then(|d| {
        d.walk()
            .iter()
            .find_map(|n| n.attr("data-requires-interaction").map(str::to_string))
    })
}

/// Solve a "What is X + Y?" math challenge from the gate prompt.
fn solve_math(visit: &Visit) -> Option<String> {
    let text = visit.document.as_ref()?.visible_text();
    let idx = text.find("What is ")?;
    let rest = &text[idx + 8..];
    let end = rest.find('?')?;
    let expr = &rest[..end];
    let (a, b) = expr.split_once('+')?;
    let sum = a.trim().parse::<i64>().ok()? + b.trim().parse::<i64>().ok()?;
    Some(sum.to_string())
}

/// Find a one-time code in the message text ("access code: 123456").
fn find_otp(text: &str) -> Option<String> {
    let marker = cb_phishgen::messages::ACCESS_CODE_PREFIX;
    // Slice the lowercased text, not the original: case folding can change
    // byte lengths (e.g. 'İ'), so indexes into `lower` are only valid in
    // `lower` — digits are unaffected by folding.
    let lower = text.to_lowercase();
    let idx = lower.find(marker)?;
    let rest = &lower[idx + marker.len()..];
    let code: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    (code.len() >= 4).then_some(code)
}

/// Append a query parameter respecting existing query strings and keeping
/// any fragment after the parameter (servers never see fragments).
fn with_param(url: &str, name: &str, value: &str) -> String {
    let (base, fragment) = match url.split_once('#') {
        Some((b, f)) => (b, Some(f)),
        None => (url, None),
    };
    let sep = if base.contains('?') { '&' } else { '?' };
    match fragment {
        Some(f) => format!("{base}{sep}{name}={value}#{f}"),
        None => format!("{base}{sep}{name}={value}"),
    }
}

/// All text content of a message's leaves (for OTP search).
fn collect_text(msg: &MimeEntity) -> String {
    msg.leaves()
        .iter()
        .filter_map(|l| l.body_text())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Maximum run of consecutive blank lines in the message body.
fn blank_run(msg: &MimeEntity) -> usize {
    let text = collect_text(msg);
    let mut best = 0usize;
    let mut run = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            run += 1;
            best = best.max(run);
        } else {
            run = 0;
        }
    }
    best
}

/// Parse the corpus `Date:` header format (`DD Mon YYYY HH:MM:SS +0000`),
/// honouring non-UTC offsets: `14:05 +0200` is normalised to `12:05` UTC.
/// An absent or malformed zone token is read as UTC — before this
/// normalisation such dates silently mis-timed the §V-A timedelta
/// analysis.
fn parse_date(s: &str) -> Option<SimTime> {
    let mut parts = s.split_whitespace();
    let day: u32 = parts.next()?.parse().ok()?;
    let month = match parts.next()? {
        "Jan" => 1,
        "Feb" => 2,
        "Mar" => 3,
        "Apr" => 4,
        "May" => 5,
        "Jun" => 6,
        "Jul" => 7,
        "Aug" => 8,
        "Sep" => 9,
        "Oct" => 10,
        "Nov" => 11,
        "Dec" => 12,
        _ => return None,
    };
    let year: i64 = parts.next()?.parse().ok()?;
    let mut hms = parts.next()?.split(':');
    let h: u32 = hms.next()?.parse().ok()?;
    let m: u32 = hms.next()?.parse().ok()?;
    let sec: u32 = hms.next()?.parse().ok()?;
    let local = SimTime::from_ymd_hms(year, month, day, h, m, sec);
    Some(match parts.next().and_then(tz_offset) {
        Some(offset) => local - offset,
        None => local,
    })
}

/// Parse a `+HHMM`/`-HHMM` zone token into its offset from UTC.
fn tz_offset(token: &str) -> Option<SimDuration> {
    let (sign, digits) = match token.strip_prefix('+') {
        Some(d) => (1i64, d),
        None => (-1i64, token.strip_prefix('-')?),
    };
    if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let hh: i64 = digits[..2].parse().ok()?;
    let mm: i64 = digits[2..].parse().ok()?;
    Some(SimDuration::seconds(sign * (hh * 3600 + mm * 60)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_phishgen::{Corpus, CorpusSpec};

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusSpec::paper().with_scale(0.02), 99)
    }

    #[test]
    fn classes_match_ground_truth() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        let mut agreement = 0usize;
        for m in &corpus.messages {
            let record = cbx.scan(m);
            if record.class == m.truth.class {
                agreement += 1;
            }
        }
        let rate = agreement as f64 / corpus.messages.len() as f64;
        assert!(
            rate > 0.95,
            "class agreement {rate} ({agreement}/{})",
            corpus.messages.len()
        );
    }

    #[test]
    fn active_spear_messages_classify_as_spear() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        let spear_msg = corpus
            .messages
            .iter()
            .find(|m| m.truth.spear && m.truth.class == cb_phishgen::MessageClass::ActivePhish)
            .expect("a spear message");
        let record = cbx.scan(spear_msg);
        assert_eq!(record.class, cb_phishgen::MessageClass::ActivePhish);
        assert!(
            record.spear_match().is_some(),
            "spear lookalike must classify: {:?}",
            record
                .visits
                .iter()
                .map(|v| (&v.requested_url, v.outcome, v.login_form))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn auth_results_parsed() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        let record = cbx.scan(&corpus.messages[0]);
        assert!(record.auth_pass);
    }

    #[test]
    fn scan_all_parallel_matches_serial() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        let subset = &corpus.messages[..20.min(corpus.messages.len())];
        let parallel = cbx.scan_all(subset);
        for (p, m) in parallel.iter().zip(subset) {
            let s = cbx.scan(m);
            assert_eq!(p.message_id, s.message_id);
            assert_eq!(p.class, s.class);
            assert_eq!(p.extracted, s.extracted);
        }
    }

    #[test]
    fn date_header_round_trips() {
        let t = SimTime::from_ymd_hms(2024, 7, 9, 14, 5, 33);
        let s = cb_phishgen::messages::date_header(t);
        assert_eq!(parse_date(&s), Some(t));
    }

    #[test]
    fn date_header_normalises_positive_offset() {
        // 14:05:33 +0200 is 12:05:33 UTC.
        assert_eq!(
            parse_date("9 Jul 2024 14:05:33 +0200"),
            Some(SimTime::from_ymd_hms(2024, 7, 9, 12, 5, 33))
        );
    }

    #[test]
    fn date_header_normalises_negative_offset() {
        // 14:05:33 -0500 is 19:05:33 UTC.
        assert_eq!(
            parse_date("9 Jul 2024 14:05:33 -0500"),
            Some(SimTime::from_ymd_hms(2024, 7, 9, 19, 5, 33))
        );
    }

    #[test]
    fn date_header_offset_round_trips_across_midnight() {
        // 00:30 +0200 lands on the previous day in UTC.
        assert_eq!(
            parse_date("9 Jul 2024 00:30:00 +0200"),
            Some(SimTime::from_ymd_hms(2024, 7, 8, 22, 30, 0))
        );
    }

    #[test]
    fn malformed_timezone_reads_as_utc() {
        let utc = Some(SimTime::from_ymd_hms(2024, 7, 9, 14, 5, 33));
        assert_eq!(parse_date("9 Jul 2024 14:05:33 GMT"), utc);
        assert_eq!(parse_date("9 Jul 2024 14:05:33 +02"), utc);
        assert_eq!(parse_date("9 Jul 2024 14:05:33"), utc);
    }

    #[test]
    fn default_policy_preserves_seed_behaviour() {
        let p = ScanPolicy::default();
        assert_eq!(p.max_urls_per_message, 4);
        assert!(p.max_retries > 0);
        assert_eq!(
            CrawlerBox::new(&corpus().world).policy(),
            &ScanPolicy::default()
        );
    }

    #[test]
    fn policy_builders_set_knobs() {
        let p = ScanPolicy::default()
            .with_max_urls(2)
            .with_max_retries(0)
            .with_backoff(SimDuration::seconds(1), SimDuration::seconds(8))
            .with_visit_budget(SimDuration::minutes(5))
            .with_breaker(2, SimDuration::seconds(30));
        assert_eq!(p.max_urls_per_message, 2);
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.backoff_base, SimDuration::seconds(1));
        assert_eq!(p.backoff_cap, SimDuration::seconds(8));
        assert_eq!(p.visit_budget, SimDuration::minutes(5));
        assert_eq!(p.breaker_threshold, 2);
        assert_eq!(p.breaker_cooldown, SimDuration::seconds(30));
    }

    #[test]
    fn backoff_grows_caps_and_honours_retry_after() {
        let p = ScanPolicy::default();
        let url = "https://h.example/p";
        let d1 = p.backoff(url, 1, None);
        let d3 = p.backoff(url, 3, None);
        assert!(d1 >= p.backoff_base);
        assert!(d3 >= d1, "exponential growth: {d3:?} < {d1:?}");
        let d_huge = p.backoff(url, 12, None);
        assert!(
            d_huge <= p.backoff_cap + p.backoff_base,
            "cap plus jitter bounds the delay"
        );
        assert!(p.backoff(url, 1, Some(500)) >= SimDuration::seconds(500));
        // Deterministic: same (url, attempt) -> same delay.
        assert_eq!(p.backoff(url, 2, None), p.backoff(url, 2, None));
    }

    #[test]
    fn breaker_trips_after_threshold_and_half_opens() {
        let policy = ScanPolicy::default().with_breaker(3, SimDuration::seconds(60));
        let mut bank = BreakerBank::new(&policy);
        for _ in 0..3 {
            assert!(bank.allow("bad.example"));
            bank.record("bad.example", false);
        }
        assert!(!bank.allow("bad.example"), "tripped after 3 failures");
        assert!(bank.allow("other.example"), "breakers are per-host");
        // Cooldown passes -> half-open probe allowed.
        bank.elapse(SimDuration::seconds(61));
        assert!(bank.allow("bad.example"), "half-open after cooldown");
        // A failing probe re-opens immediately.
        bank.record("bad.example", false);
        assert!(!bank.allow("bad.example"));
        // Another cooldown, then a successful probe closes it for good.
        bank.elapse(SimDuration::seconds(61));
        assert!(bank.allow("bad.example"));
        bank.record("bad.example", true);
        assert!(bank.allow("bad.example"));
    }

    #[test]
    fn scan_caught_isolates_panics() {
        // An unparseable URL must degrade, not panic — and even if a panic
        // does escape a scan, scan_caught converts it into a record.
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        let record = cbx.scan_caught(&corpus.messages[0]);
        assert!(record.error.is_none(), "healthy scans are unaffected");
    }

    #[test]
    fn unparseable_extracted_url_degrades_not_panics() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        let mut ctx = ScanCtx::new(&cbx.policy);
        let log = cbx.crawl_one("http://", "", SimTime::EPOCH, &mut ctx);
        assert_eq!(log.outcome, VisitOutcome::Unreachable);
        assert!(log.error.is_some());
    }

    /// Worker counts every determinism test compares: the inline-equivalent
    /// single worker and a parallel pool.
    const WORKERS: [usize; 2] = [1, 4];

    /// The cache-isolated reference: one worker, and a fresh `CrawlerBox`
    /// per message, so no memo entry can carry from one message to the next.
    fn fresh_box_reference(world: &Internet, messages: &[ReportedMessage]) -> Vec<ScanRecord> {
        messages
            .iter()
            .flat_map(|m| {
                let mut cbx = CrawlerBox::new(world);
                cbx.parallelism = 1;
                cbx.scan_all(std::slice::from_ref(m))
            })
            .collect()
    }

    #[test]
    fn parallelism_defaults_to_four_workers() {
        let corpus = corpus();
        assert_eq!(CrawlerBox::new(&corpus.world).parallelism, 4);
    }

    #[test]
    fn every_worker_count_matches_the_fresh_box_reference() {
        let corpus = corpus();
        let subset = &corpus.messages[..24.min(corpus.messages.len())];
        let reference_json =
            cb_json::to_string(&fresh_box_reference(&corpus.world, subset)).unwrap();
        for workers in WORKERS {
            let mut cbx = CrawlerBox::new(&corpus.world);
            cbx.parallelism = workers;
            let records = cbx.scan_all(subset);
            assert_eq!(
                cb_json::to_string(&records).unwrap(),
                reference_json,
                "{workers} worker(s) diverged from the fresh-box reference"
            );
        }
        // The smallest window, in the short bursts a daemon sees, where the
        // calling thread scans most or all of each burst itself.
        for workers in [1, 2, 4] {
            for burst in [1, 2, 3] {
                let mut cbx = CrawlerBox::new(&corpus.world).with_stream_capacity(1);
                cbx.parallelism = workers;
                let mut records: Vec<ScanRecord> = Vec::new();
                for chunk in subset.chunks(burst) {
                    cbx.scan_stream(chunk.iter().cloned(), &mut records);
                }
                assert_eq!(
                    cb_json::to_string(&records).unwrap(),
                    reference_json,
                    "{workers} worker(s), bursts of {burst}: diverged from the fresh-box reference"
                );
            }
        }
    }

    #[test]
    fn scan_stream_matches_scan_all_and_bounds_residency() {
        let corpus = corpus();
        let subset: Vec<cb_phishgen::ReportedMessage> =
            corpus.messages[..24.min(corpus.messages.len())].to_vec();
        let batch_json = cb_json::to_string(&fresh_box_reference(&corpus.world, &subset)).unwrap();
        for workers in WORKERS {
            let mut cbx = CrawlerBox::new(&corpus.world).with_stream_capacity(4);
            cbx.parallelism = workers;
            let mut out: Vec<ScanRecord> = Vec::new();
            let n = cbx.scan_stream(subset.iter().cloned(), &mut out);
            assert_eq!(n, subset.len());
            assert_eq!(
                cb_json::to_string(&out).unwrap(),
                batch_json,
                "{workers} worker(s): streaming diverged from batch"
            );
            let stats = cbx.stats();
            let bound = (cbx.stream_capacity() + cbx.parallelism) as u64;
            assert!(
                (1..=bound).contains(&stats.peak_in_flight),
                "{workers} worker(s): peak in-flight {} outside 1..={bound}",
                stats.peak_in_flight
            );
            assert!(
                stats.peak_reorder <= bound,
                "{workers} worker(s): reorder depth {} exceeds window {bound}",
                stats.peak_reorder
            );
            assert_eq!(stats.messages, subset.len() as u64);
        }
    }

    #[test]
    fn empty_batches_scan_to_nothing() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        assert!(cbx.scan_all(&[]).is_empty());
        let mut out: Vec<ScanRecord> = Vec::new();
        assert_eq!(cbx.scan_stream(Vec::new(), &mut out), 0);
        assert_eq!(cbx.stats().messages, 0);
    }

    /// An encoder that panics on one message id and otherwise encodes a
    /// record as its id.
    struct PanicOn(usize);

    impl RecordEncoder for PanicOn {
        type Encoded = usize;

        fn encode(&self, record: &mut ScanRecord) -> usize {
            assert_ne!(record.message_id, self.0, "encoder exploded");
            record.message_id
        }
    }

    /// Collects delivered ids; panics on delivering `panic_on`.
    struct Ids {
        ids: Vec<usize>,
        panic_on: Option<usize>,
    }

    impl EncodedSink<usize> for Ids {
        fn accept_encoded(&mut self, record: ScanRecord, encoded: usize) {
            assert_eq!(record.message_id, encoded);
            assert_ne!(Some(encoded), self.panic_on, "sink exploded");
            self.ids.push(encoded);
        }
    }

    /// Stream the first 20 messages through 2 workers at capacity 2 on a
    /// helper thread; `None` when the engine has not returned or unwound
    /// within a minute. Otherwise `(panicked, delivered ids)`.
    fn scan_twenty(encoder: PanicOn, sink_panics_on: Option<usize>) -> Option<(bool, Vec<usize>)> {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let corpus = corpus();
            let messages = corpus.messages[..20].to_vec();
            let mut cbx = CrawlerBox::new(&corpus.world).with_stream_capacity(2);
            cbx.parallelism = 2;
            let mut sink = Ids {
                ids: Vec::new(),
                panic_on: sink_panics_on,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cbx.scan_stream_encoded(messages, &encoder, &mut sink)
            }));
            let _ = done_tx.send((outcome.is_err(), sink.ids));
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .ok()
    }

    #[test]
    fn encoder_panic_surfaces_to_the_caller_instead_of_hanging() {
        let (panicked, delivered) =
            scan_twenty(PanicOn(3), None).expect("scan engine hung on an encoder panic");
        assert!(panicked, "the encoder panic must reach the caller");
        let expected: Vec<usize> = (0..20).filter(|&id| id != 3).collect();
        assert_eq!(
            delivered, expected,
            "every other record is delivered, in order"
        );
    }

    #[test]
    fn sink_panic_surfaces_to_the_caller_instead_of_hanging() {
        let (panicked, delivered) =
            scan_twenty(PanicOn(usize::MAX), Some(3)).expect("scan engine hung on a sink panic");
        assert!(panicked, "the sink panic must reach the caller");
        assert_eq!(delivered, [0, 1, 2]);
    }

    /// Records the thread each record was encoded on.
    #[derive(Default)]
    struct ThreadLog(Mutex<Vec<std::thread::ThreadId>>);

    impl RecordEncoder for ThreadLog {
        type Encoded = ();

        fn encode(&self, _record: &mut ScanRecord) {
            self.0.lock().unwrap().push(std::thread::current().id());
        }
    }

    /// The threads a `scan_stream_encoded` call at `parallelism` encoded
    /// `messages` on.
    fn encoding_threads(
        world: &Internet,
        messages: &[ReportedMessage],
        parallelism: usize,
    ) -> HashSet<std::thread::ThreadId> {
        let mut cbx = CrawlerBox::new(world);
        cbx.parallelism = parallelism;
        let log = ThreadLog::default();
        let mut out: Vec<ScanRecord> = Vec::new();
        let n = cbx.scan_stream_encoded(messages.iter().cloned(), &log, &mut out);
        assert_eq!(n, messages.len());
        let threads = log.0.into_inner().unwrap();
        assert_eq!(threads.len(), messages.len(), "one encoding per record");
        threads.into_iter().collect()
    }

    #[test]
    fn a_one_message_burst_scans_on_the_calling_thread() {
        let corpus = corpus();
        let threads = encoding_threads(&corpus.world, &corpus.messages[..1], 4);
        assert_eq!(
            threads,
            HashSet::from([std::thread::current().id()]),
            "a one-message burst must run on the caller and spawn nothing"
        );
    }

    #[test]
    fn a_burst_scans_on_at_most_parallelism_threads_counting_the_caller() {
        let corpus = corpus();
        let burst = &corpus.messages[..64];
        let caller = std::thread::current().id();
        for parallelism in [1, 2, 4] {
            let threads = encoding_threads(&corpus.world, burst, parallelism);
            let helpers = threads.iter().filter(|&&t| t != caller).count();
            assert!(
                helpers < parallelism,
                "parallelism {parallelism}: {helpers} helper thread(s) besides the caller"
            );
        }
    }

    #[test]
    fn the_callers_telemetry_worker_id_survives_a_scan() {
        let corpus = corpus();
        let subset = &corpus.messages[..6];
        for outer in [None, Some(7)] {
            for parallelism in [1, 4] {
                let mut cbx = CrawlerBox::new(&corpus.world);
                cbx.parallelism = parallelism;
                cb_telemetry::set_worker(outer);
                cbx.scan_all(&subset[..1]);
                cbx.scan_all(subset);
                assert_eq!(
                    cb_telemetry::worker(),
                    outer,
                    "parallelism {parallelism}: the caller's worker id changed"
                );
            }
        }
        cb_telemetry::set_worker(None);
    }

    #[test]
    fn stream_capacity_builder_clamps_to_one() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world).with_stream_capacity(0);
        assert_eq!(cbx.stream_capacity(), 1);
    }

    #[test]
    fn stats_count_messages_and_cache_traffic() {
        let corpus = corpus();
        let subset = &corpus.messages[..12.min(corpus.messages.len())];
        let cbx = CrawlerBox::new(&corpus.world);
        let _ = cbx.scan_all(subset);
        let stats = cbx.stats();
        assert_eq!(stats.messages, subset.len() as u64);
        assert!(
            stats.screenshot_hits + stats.screenshot_misses > 0,
            "scans with visits must touch the screenshot cache: {stats}"
        );
    }

    #[test]
    fn repeated_identical_screenshots_hit_the_shot_cache() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        let msg = &corpus.messages[0];
        let first = cbx.scan(msg);
        let again = cbx.scan(msg);
        assert_eq!(
            cb_json::to_string(&first).unwrap(),
            cb_json::to_string(&again).unwrap()
        );
        let stats = cbx.stats();
        if stats.screenshot_misses > 0 {
            assert!(
                stats.screenshot_hits >= stats.screenshot_misses,
                "second scan of the same message must replay cached shots: {stats}"
            );
        }
    }

    #[test]
    fn shot_cache_is_keyed_by_the_screenshot_blob_address() {
        let corpus = corpus();
        let subset = &corpus.messages[..24.min(corpus.messages.len())];
        let mut cbx = CrawlerBox::new(&corpus.world).with_artifact_capture(true);
        cbx.parallelism = 1;
        let records = cbx.scan_all(subset);
        let mut shots = 0u64;
        let mut addresses = HashSet::new();
        for r in &records {
            for a in &r.artifacts {
                assert_eq!(a.hash, fingerprint::fnv128(&a.bytes()), "{:?}", a.kind);
                match a.kind {
                    ArtifactKind::Message => assert_eq!(a.hash, r.content_hash),
                    ArtifactKind::Screenshot => {
                        shots += 1;
                        addresses.insert(a.hash);
                    }
                }
            }
            let visits_with_shot = r.visits.iter().filter(|v| v.screenshot_hash.is_some());
            let captured = r
                .artifacts
                .iter()
                .filter(|a| a.kind == ArtifactKind::Screenshot);
            assert_eq!(visits_with_shot.count(), captured.count());
        }
        let stats = cbx.stats();
        assert!(shots > 0, "the subset must take screenshots");
        assert_eq!(stats.screenshot_misses, addresses.len() as u64, "{stats}");
        assert_eq!(
            stats.screenshot_hits + stats.screenshot_misses,
            shots,
            "{stats}"
        );

        // The page-key level: every shot looks up its page key once, each
        // distinct page source misses once, and every key maps to one of
        // the captured addresses.
        let pages = cbx.pages.read().unwrap().clone();
        assert_eq!(stats.page_hits + stats.page_misses, shots, "{stats}");
        assert_eq!(stats.page_misses, pages.len() as u64, "{stats}");
        assert!(stats.page_hits > 0, "repeated pages must hit: {stats}");
        assert!(pages.values().all(|a| addresses.contains(a)));
        assert_eq!(
            pages.values().collect::<HashSet<_>>().len(),
            addresses.len()
        );

        // A second pass hits on every page key and captures the same
        // addresses and bytes, now without hashing any pixels.
        let again = cbx.scan_all(subset);
        let warm = cbx.stats();
        assert_eq!(warm.page_misses, stats.page_misses, "{warm}");
        assert_eq!(warm.page_hits, stats.page_hits + shots, "{warm}");
        assert_eq!(warm.screenshot_misses, stats.screenshot_misses, "{warm}");
        for (cold, warm) in records.iter().zip(&again) {
            assert!(cold.artifacts == warm.artifacts, "{}", cold.message_id);
        }

        // Capture off runs the same keying: same hits and misses.
        let mut bare = CrawlerBox::new(&corpus.world);
        bare.parallelism = 1;
        let _ = bare.scan_all(subset);
        let bare_stats = bare.stats();
        assert_eq!(
            (
                bare_stats.screenshot_hits,
                bare_stats.screenshot_misses,
                bare_stats.page_hits,
                bare_stats.page_misses
            ),
            (
                stats.screenshot_hits,
                stats.screenshot_misses,
                stats.page_hits,
                stats.page_misses
            )
        );
    }

    /// Two pages that differ only in a script body draw the same pixels:
    /// two page keys map to one blob address, so the screenshot is
    /// analysed once.
    #[test]
    fn invisible_page_differences_share_one_screenshot_analysis() {
        use cb_netsim::{HttpRequest, HttpResponse, NetContext};
        let world = Internet::new(SimTime::from_ymd(2024, 1, 1));
        for (domain, script) in [("one.example", "var n = 1;"), ("two.example", "var n = 2;")] {
            world.register_domain(domain, "REG");
            let page = format!(
                "<html><body><h1>Sign in</h1><p>Verify your account</p>\
                 <script>{script}</script></body></html>"
            );
            world.host(domain, move |_: &HttpRequest, _: &NetContext<'_>| {
                HttpResponse::html(&page)
            });
        }
        let cbx = CrawlerBox::new(&world);
        let browser = Browser::new(CrawlerProfile::NotABot);
        let mut session = cbx.probe_session();
        let mut probe = |url: &str| cbx.probe(&mut session, &browser, url, "");
        let one = probe("https://one.example/");
        let two = probe("https://two.example/");
        assert_eq!(one.outcome, VisitOutcome::Loaded);
        assert_eq!(two.outcome, VisitOutcome::Loaded);
        assert!(one.screenshot_hash.is_some());
        assert_eq!(one.screenshot_hash, two.screenshot_hash);
        let pages = cbx.pages.read().unwrap().clone();
        assert_eq!(pages.len(), 2, "one page key per source");
        assert_eq!(
            pages.values().collect::<HashSet<_>>().len(),
            1,
            "one blob address"
        );
        let stats = cbx.stats();
        assert_eq!((stats.page_hits, stats.page_misses), (0, 2), "{stats}");
        assert_eq!(
            (stats.screenshot_hits, stats.screenshot_misses),
            (1, 1),
            "{stats}"
        );

        // A revisit finds its address by page key.
        let _ = probe("https://two.example/");
        let stats = cbx.stats();
        assert_eq!((stats.page_hits, stats.page_misses), (1, 2), "{stats}");
        assert_eq!(
            (stats.screenshot_hits, stats.screenshot_misses),
            (2, 1),
            "{stats}"
        );
    }

    /// A box whose page-key map is already warm (from a scan with capture
    /// off) captures, at every worker count, exactly the artifacts a fresh
    /// box per message captures. Every shot is then a page-key hit, so
    /// every screenshot artifact is captured undrawn; the comparison draws
    /// it and must find the reference bytes.
    #[test]
    fn warm_box_captures_the_fresh_box_artifacts() {
        let corpus = corpus();
        let subset = &corpus.messages[..24.min(corpus.messages.len())];
        let reference: Vec<Vec<CapturedArtifact>> = subset
            .iter()
            .map(|m| {
                let fresh = CrawlerBox::new(&corpus.world).with_artifact_capture(true);
                fresh.scan(m).artifacts
            })
            .collect();
        let shots = reference
            .iter()
            .flatten()
            .filter(|a| a.kind == ArtifactKind::Screenshot)
            .count();
        assert!(shots > 0, "the subset must take screenshots");
        for workers in WORKERS {
            let mut cbx = CrawlerBox::new(&corpus.world);
            cbx.parallelism = workers;
            let _ = cbx.scan_all(subset);
            let cbx = cbx.with_artifact_capture(true);
            let before = cbx.stats();
            let records = cbx.scan_all(subset);
            let after = cbx.stats();
            assert_eq!(after.page_misses, before.page_misses, "{after}");
            assert_eq!(after.page_hits - before.page_hits, shots as u64);
            for (record, expected) in records.iter().zip(&reference) {
                assert!(
                    record.artifacts == *expected,
                    "{workers} worker(s): message {} captured different artifacts",
                    record.message_id
                );
                for a in &record.artifacts {
                    assert_eq!(
                        a.is_drawn(),
                        a.kind == ArtifactKind::Message,
                        "{workers} worker(s): message {}: a {:?} artifact",
                        record.message_id,
                        a.kind
                    );
                }
            }
        }
    }

    #[test]
    fn otp_extraction_from_text() {
        assert_eq!(
            find_otp("Your one-time access code: 491827\nthanks"),
            Some("491827".to_string())
        );
        assert_eq!(find_otp("no code here"), None);
        assert_eq!(find_otp("access code: 12"), None, "too short");
    }

    #[test]
    fn math_solver() {
        assert_eq!(
            with_param("https://a.example/x", "answer", "42"),
            "https://a.example/x?answer=42"
        );
        assert_eq!(
            with_param("https://a.example/x?victim=v", "otp", "1"),
            "https://a.example/x?victim=v&otp=1"
        );
    }

    #[test]
    fn noise_padding_detected_via_blank_run() {
        let corpus = corpus();
        let cbx = CrawlerBox::new(&corpus.world);
        if let Some(noisy) = corpus.messages.iter().find(|m| m.truth.noise_padded) {
            let record = cbx.scan(noisy);
            assert!(record.blank_line_run >= 8, "run {}", record.blank_line_run);
        }
    }
}
