//! The browser's [`cb_script::Host`] implementation: what page scripts see
//! when they run inside a [`crate::Browser`].
//!
//! Environment reads are answered from the crawler's
//! [`crate::BrowserFingerprint`]; `fetch` goes out through the simulated
//! internet (with the attestation header attached, like every browser
//! request); `location.href` assignments and `document.write` are recorded
//! for the engine to act on.

use crate::fingerprint::{BrowserFingerprint, ATTESTATION_HEADER};
use cb_netsim::{HttpRequest, Internet, Url, FAULT_HEADER};
use cb_script::{Host, ScriptError, Value};
use cb_sim::SimDuration;

/// Per-page script host.
pub struct PageHost<'a> {
    net: &'a Internet,
    fingerprint: &'a BrowserFingerprint,
    page_url: Url,
    /// `document.write` payloads in order.
    pub writes: Vec<String>,
    /// Console output (recorded even after hijack, flagged below).
    pub console: Vec<String>,
    /// `true` once a script overwrote a console method (§V-C2 b).
    pub console_hijacked: bool,
    /// URLs assigned to `location.href`.
    pub navigations: Vec<String>,
    /// `(url, body, response_status)` of script-initiated fetches.
    pub fetches: Vec<(String, String, u16)>,
    /// `debugger;` executions.
    pub debugger_hits: usize,
    /// Timer delays requested (ms).
    pub timer_delays: Vec<f64>,
    /// Retry index of the enclosing visit, stamped on script fetches so
    /// the fault injector treats them consistently with page loads.
    pub attempt: u32,
    /// Transient-fault provenance notes from script fetches.
    pub transient_failures: Vec<String>,
    /// Simulated time lost to faulted script fetches.
    pub fault_latency: SimDuration,
    clock_ms: f64,
}

impl<'a> PageHost<'a> {
    /// A host for scripts on `page_url` running in a browser with
    /// `fingerprint`.
    pub fn new(net: &'a Internet, fingerprint: &'a BrowserFingerprint, page_url: Url) -> Self {
        PageHost {
            net,
            fingerprint,
            page_url,
            writes: Vec::new(),
            console: Vec::new(),
            console_hijacked: false,
            navigations: Vec::new(),
            fetches: Vec::new(),
            debugger_hits: 0,
            timer_delays: Vec::new(),
            attempt: 0,
            transient_failures: Vec::new(),
            fault_latency: SimDuration::ZERO,
            clock_ms: 1_000_000.0,
        }
    }
}

const GLOBALS: &[&str] = &[
    "navigator",
    "console",
    "document",
    "window",
    "location",
    "screen",
    "Intl",
    "Date",
];

impl Host for PageHost<'_> {
    fn get_prop(&mut self, object: &str, prop: &str) -> Result<Value, ScriptError> {
        let f = self.fingerprint;
        Ok(match (object, prop) {
            ("navigator", "userAgent") => Value::from(f.user_agent.as_str()),
            ("navigator", "webdriver") => Value::Bool(f.webdriver_visible),
            ("navigator", "language") | ("navigator", "userLanguage") => {
                Value::from(f.language.as_str())
            }
            ("navigator", "plugins") => Value::Num(if f.ua_headless_marker { 0.0 } else { 3.0 }),
            ("screen", "width") => Value::Num(f.screen.0 as f64),
            ("screen", "height") => Value::Num(f.screen.1 as f64),
            ("intl", "timeZone") => Value::from(f.timezone.as_str()),
            ("location", "href") => Value::from(self.page_url.to_string()),
            ("location", "host") => Value::from(self.page_url.host.as_str()),
            ("location", "pathname") => Value::from(self.page_url.path.as_str()),
            ("location", "search") => {
                if self.page_url.query.is_empty() {
                    Value::from("")
                } else {
                    Value::from(format!("?{}", self.page_url.query))
                }
            }
            ("document", "referrer") => Value::from(""),
            // chromedriver artifact probe: window.cdc_… properties
            ("window", p) if p.starts_with("cdc_") => {
                if f.cdc_artifacts {
                    Value::Ref("cdcArtifact".to_string())
                } else {
                    Value::Null
                }
            }
            _ => Value::Null,
        })
    }

    fn set_prop(&mut self, object: &str, prop: &str, value: Value) -> Result<(), ScriptError> {
        match (object, prop) {
            ("location", "href") => self.navigations.push(value.as_str()),
            ("console", _) => self.console_hijacked = true,
            _ => {}
        }
        Ok(())
    }

    fn call_method(
        &mut self,
        object: &str,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ScriptError> {
        match (object, method) {
            ("console", _) => {
                self.console
                    .push(args.iter().map(Value::as_str).collect::<Vec<_>>().join(" "));
                Ok(Value::Null)
            }
            ("document", "write") => {
                self.writes
                    .push(args.first().map(Value::as_str).unwrap_or_default());
                Ok(Value::Null)
            }
            ("document", "addEventListener") | ("window", "addEventListener") => {
                // Events fire only in browsers with input generation; the
                // trusted flag matters for fingerprinting scripts reading
                // event.isTrusted, surfaced through get_prop on demand.
                Ok(Value::Null)
            }
            ("document", "getElementById") | ("document", "querySelector") => {
                Ok(Value::Ref(format!(
                    "element:{}",
                    args.first().map(Value::as_str).unwrap_or_default()
                )))
            }
            ("Intl", "DateTimeFormat") => Ok(Value::Ref("intlDTF".to_string())),
            ("intlDTF", "resolvedOptions") => Ok(Value::Ref("intl".to_string())),
            ("Date", "now") => {
                // Each observation costs 1ms of simulated time; a debugger
                // pause would cost thousands — our crawler never pauses, so
                // anti-debug timing probes read "no debugger".
                self.clock_ms += 1.0;
                Ok(Value::Num(self.clock_ms))
            }
            (obj, _) if obj.starts_with("element:") => Ok(Value::Null),
            (obj, m) => Err(ScriptError::UnknownFunction(format!("{obj}.{m}"))),
        }
    }

    fn call_global(&mut self, func: &str, args: &[Value]) -> Result<Value, ScriptError> {
        match func {
            "fetch" => {
                let raw = args.first().map(Value::as_str).unwrap_or_default();
                let body = args.get(1).map(Value::as_str).unwrap_or_default();
                let absolute = resolve_url(&self.page_url, &raw);
                let Ok(url) = Url::parse(&absolute) else {
                    self.fetches.push((raw, body, 0));
                    return Ok(Value::Str(String::new()));
                };
                let mut req = HttpRequest::post(&url.to_string(), body.as_bytes());
                req.set_header("User-Agent", &self.fingerprint.user_agent);
                req.set_header(
                    ATTESTATION_HEADER,
                    &self.fingerprint.attestation().to_header_value(),
                );
                // Same deterministic egress addressing as navigations: the
                // address exfil endpoints echo back must not depend on how
                // many requests other scans made first.
                req.client_ip = self
                    .fingerprint
                    .ip_class
                    .egress_ip(&url.to_string(), self.attempt);
                req.tls = self.fingerprint.tls;
                req.attempt = self.attempt;
                match self.net.try_request(req) {
                    Ok(resp) => {
                        if let Some(kind) = resp.header(FAULT_HEADER) {
                            self.transient_failures.push(format!("fetch {url}: {kind}"));
                        }
                        self.fetches.push((url.to_string(), body, resp.status));
                        Ok(Value::Str(resp.body_text()))
                    }
                    Err(err) => {
                        self.fault_latency = self.fault_latency + err.latency;
                        self.transient_failures.push(format!("fetch {url}: {err}"));
                        self.fetches.push((url.to_string(), body, 0));
                        Ok(Value::Str(String::new()))
                    }
                }
            }
            "atob" | "btoa" | "encodeURIComponent" | "parseInt" | "Number" | "String"
            | "isEmailValid" => {
                // Shared pure helpers: delegate to the recording host's
                // implementations via a throwaway instance.
                let mut pure = cb_script::hosts::RecordingHost::new();
                pure.call_global(func, args)
            }
            "setTimeout" | "setInterval" | "sleep" => {
                let delay = args.iter().rev().find_map(Value::as_num).unwrap_or(0.0);
                self.timer_delays.push(delay);
                Ok(Value::Num(self.timer_delays.len() as f64))
            }
            "redirect" => {
                self.navigations
                    .push(args.first().map(Value::as_str).unwrap_or_default());
                Ok(Value::Null)
            }
            other => Err(ScriptError::UnknownFunction(other.to_string())),
        }
    }

    fn global(&mut self, name: &str) -> Option<Value> {
        GLOBALS
            .contains(&name)
            .then(|| Value::Ref(name.to_string()))
    }

    fn debugger_hit(&mut self) {
        self.debugger_hits += 1;
    }
}

/// Resolve `href` against `base` (absolute URLs pass through; `/`-rooted
/// and relative paths are joined).
pub fn resolve_url(base: &Url, href: &str) -> String {
    let lower = href.to_ascii_lowercase();
    if lower.starts_with("http://") || lower.starts_with("https://") {
        return href.to_string();
    }
    if let Some(rest) = href.strip_prefix("//") {
        return format!("{}://{}", base.scheme, rest);
    }
    // a query-only href replaces the query but keeps the full base path
    // (the "?" form gate pages use must not drop the access token segment)
    if href.starts_with('?') {
        return format!("{}://{}{}{}", base.scheme, base.host, base.path, href);
    }
    if href.starts_with('/') {
        return format!("{}://{}{}", base.scheme, base.host, href);
    }
    // relative to the base path's directory
    let dir = match base.path.rfind('/') {
        Some(i) => &base.path[..=i],
        None => "/",
    };
    format!("{}://{}{}{}", base.scheme, base.host, dir, href)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::CrawlerProfile;
    use cb_script::{run, Script};
    use cb_sim::SimTime;

    fn page_url() -> Url {
        Url::parse("https://phish.example/dir/page?tok=abc").unwrap()
    }

    #[test]
    fn navigator_reflects_fingerprint() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let f = CrawlerProfile::Kangooroo.fingerprint();
        let mut host = PageHost::new(&net, &f, page_url());
        let s =
            Script::parse("console.log(navigator.webdriver); console.log(navigator.userAgent);")
                .unwrap();
        run(&s, &mut host).unwrap();
        assert_eq!(host.console[0], "true");
        assert!(host.console[1].contains("HeadlessChrome"));
    }

    #[test]
    fn location_parts_visible_to_scripts() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let f = CrawlerProfile::NotABot.fingerprint();
        let mut host = PageHost::new(&net, &f, page_url());
        let s = Script::parse("console.log(location.host); console.log(location.search);").unwrap();
        run(&s, &mut host).unwrap();
        assert_eq!(host.console, ["phish.example", "?tok=abc"]);
    }

    #[test]
    fn fetch_goes_through_the_internet() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        net.register_domain("c2.example", "REG");
        net.host(
            "c2.example",
            |_req: &HttpRequest, _ctx: &cb_netsim::NetContext<'_>| {
                cb_netsim::HttpResponse::ok("text/plain", b"allow".to_vec())
            },
        );
        let f = CrawlerProfile::NotABot.fingerprint();
        let mut host = PageHost::new(&net, &f, page_url());
        let s = Script::parse(
            "var r = fetch('https://c2.example/gate', 'v=1'); if (r == 'allow') { document.write('GO'); }",
        )
        .unwrap();
        run(&s, &mut host).unwrap();
        assert_eq!(host.writes, ["GO"]);
        assert_eq!(host.fetches[0].2, 200);
    }

    #[test]
    fn relative_fetch_resolves_against_page() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let f = CrawlerProfile::NotABot.fingerprint();
        let mut host = PageHost::new(&net, &f, page_url());
        let s = Script::parse("fetch('check.php', 'x');").unwrap();
        run(&s, &mut host).unwrap();
        assert_eq!(host.fetches[0].0, "https://phish.example/dir/check.php");
        // page domain not registered -> unreachable status 0
        assert_eq!(host.fetches[0].2, 0);
    }

    #[test]
    fn console_hijack_detection() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let f = CrawlerProfile::NotABot.fingerprint();
        let mut host = PageHost::new(&net, &f, page_url());
        let s = Script::parse("console.log = null; console.warn = null;").unwrap();
        run(&s, &mut host).unwrap();
        assert!(host.console_hijacked);
    }

    #[test]
    fn anti_debug_timer_sees_no_pause() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let f = CrawlerProfile::NotABot.fingerprint();
        let mut host = PageHost::new(&net, &f, page_url());
        let s = Script::parse(
            "var t0 = Date.now(); debugger; var t1 = Date.now(); if (t1 - t0 < 100) { document.write('clean'); }",
        )
        .unwrap();
        run(&s, &mut host).unwrap();
        assert_eq!(host.writes, ["clean"]);
        assert_eq!(host.debugger_hits, 1);
    }

    #[test]
    fn url_resolution() {
        let base = Url::parse("https://h.example/a/b/page").unwrap();
        assert_eq!(
            resolve_url(&base, "https://x.example/q"),
            "https://x.example/q"
        );
        assert_eq!(
            resolve_url(&base, "HTTPS://x.example/q"),
            "HTTPS://x.example/q"
        );
        assert_eq!(resolve_url(&base, "/root"), "https://h.example/root");
        assert_eq!(
            resolve_url(&base, "sibling"),
            "https://h.example/a/b/sibling"
        );
        assert_eq!(
            resolve_url(&base, "//cdn.example/r"),
            "https://cdn.example/r"
        );
        // query-only navigation keeps the tokenized path
        assert_eq!(
            resolve_url(&base, "?otp=1"),
            "https://h.example/a/b/page?otp=1"
        );
    }

    #[test]
    fn timezone_gate_example() {
        let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
        let f = CrawlerProfile::NotABot.fingerprint();
        let mut host = PageHost::new(&net, &f, page_url());
        let s = Script::parse(
            r#"
            var tz = Intl.DateTimeFormat().resolvedOptions().timeZone;
            if (tz == 'Europe/Paris' && navigator.language == 'en-US') {
                document.write('targeted visitor');
            } else {
                document.write('benign');
            }
            "#,
        )
        .unwrap();
        run(&s, &mut host).unwrap();
        assert_eq!(host.writes, ["targeted visitor"]);
    }
}
