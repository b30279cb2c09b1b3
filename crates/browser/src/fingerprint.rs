//! The browser fingerprint surface and the attestation challenge scripts
//! measure.
//!
//! Every signal here is one the paper names: `navigator.webdriver` (§IV-C,
//! MDN-documented automation flag), headless UA markers, chromedriver
//! `cdc_` globals, CDP `Runtime.enable` side effects, the
//! request-interception caching-header anomaly NotABot's authors found and
//! removed, TLS fingerprints, `isTrusted` events, mouse behaviour, VM
//! timing consistency, and the egress IP class (4G modem vs datacenter).

use cb_json::{Deserialize, Serialize};
use cb_netsim::{IpClass, TlsFingerprint};

/// The complete observable surface of one browser/crawler configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrowserFingerprint {
    /// The User-Agent string presented in headers and `navigator.userAgent`.
    pub user_agent: String,
    /// `navigator.webdriver` reads `true` (the AutomationControlled flag
    /// NotABot disables).
    pub webdriver_visible: bool,
    /// The UA (or JS surface) carries a `HeadlessChrome` marker.
    pub ua_headless_marker: bool,
    /// Chromedriver `cdc_…` window globals are present.
    pub cdc_artifacts: bool,
    /// CDP `Runtime.enable` side effects are detectable (serialization
    /// artifacts advanced challenges probe for).
    pub runtime_domain_leak: bool,
    /// Request interception left `Cache-Control: no-cache` / `Pragma`
    /// anomalies on subresource requests — the tell the paper discovered in
    /// early NotABot builds and engineered away.
    pub cache_header_anomaly: bool,
    /// Non-browser header ordering (library/driver default header sets).
    pub header_order_anomaly: bool,
    /// TLS client stack.
    pub tls: TlsFingerprint,
    /// Synthetic input events carry `isTrusted: true` (CDP-level input as
    /// NotABot generates) rather than `false` (JS-dispatched events).
    pub trusted_events: bool,
    /// The crawler generates human-like mouse movement.
    pub mouse_movement: bool,
    /// Timing behaviour is consistent with physical hardware (the paper
    /// runs NotABot on a physical Dell workstation to defeat VM timing red
    /// pills).
    pub physical_timing: bool,
    /// Egress network class.
    pub ip_class: IpClass,
    /// `navigator.language`.
    pub language: String,
    /// IANA timezone exposed through `Intl`.
    pub timezone: String,
    /// Screen dimensions.
    pub screen: (u32, u32),
}

impl BrowserFingerprint {
    /// The fingerprint of a human victim's browser: real Chrome on a
    /// corporate laptop or personal phone. This is what detectors calibrate
    /// "pass" against.
    pub fn human_victim() -> BrowserFingerprint {
        BrowserFingerprint {
            user_agent: "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
                         (KHTML, like Gecko) Chrome/121.0.0.0 Safari/537.36"
                .to_string(),
            webdriver_visible: false,
            ua_headless_marker: false,
            cdc_artifacts: false,
            runtime_domain_leak: false,
            cache_header_anomaly: false,
            header_order_anomaly: false,
            tls: TlsFingerprint::ChromeReal,
            trusted_events: true,
            mouse_movement: true,
            physical_timing: true,
            ip_class: IpClass::Residential,
            language: "en-US".to_string(),
            timezone: "Europe/Paris".to_string(),
            screen: (1920, 1080),
        }
    }

    /// The attestation a faithful challenge script would assemble from this
    /// fingerprint (see `DESIGN.md` §4 — the substitution for client-side
    /// challenge execution).
    pub fn attestation(&self) -> ChallengeReport {
        ChallengeReport {
            user_agent: self.user_agent.clone(),
            webdriver_visible: self.webdriver_visible,
            ua_headless_marker: self.ua_headless_marker,
            cdc_artifacts: self.cdc_artifacts,
            runtime_domain_leak: self.runtime_domain_leak,
            cache_header_anomaly: self.cache_header_anomaly,
            header_order_anomaly: self.header_order_anomaly,
            tls: self.tls,
            trusted_events: self.trusted_events,
            mouse_movement: self.mouse_movement,
            physical_timing: self.physical_timing,
            ip_class: self.ip_class,
        }
    }
}

/// What challenge JavaScript reports back to a bot-detection service: the
/// detection-relevant projection of the fingerprint, carried on requests as
/// the `X-Client-Attestation` header (JSON).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChallengeReport {
    /// Claimed User-Agent.
    pub user_agent: String,
    /// `navigator.webdriver`.
    pub webdriver_visible: bool,
    /// Headless marker seen.
    pub ua_headless_marker: bool,
    /// Chromedriver globals seen.
    pub cdc_artifacts: bool,
    /// CDP Runtime side effects seen.
    pub runtime_domain_leak: bool,
    /// Cache header anomaly seen on subresources.
    pub cache_header_anomaly: bool,
    /// Header-order anomaly.
    pub header_order_anomaly: bool,
    /// TLS stack.
    pub tls: TlsFingerprint,
    /// Input events trusted.
    pub trusted_events: bool,
    /// Mouse movement observed.
    pub mouse_movement: bool,
    /// Hardware-consistent timing.
    pub physical_timing: bool,
    /// Source address class.
    pub ip_class: IpClass,
}

/// Header name carrying the serialized attestation.
pub const ATTESTATION_HEADER: &str = "X-Client-Attestation";

impl ChallengeReport {
    /// Serialize for the attestation header.
    pub fn to_header_value(&self) -> String {
        cb_json::to_string(self).expect("report serializes")
    }

    /// Parse from an attestation header value.
    pub fn from_header_value(s: &str) -> Option<ChallengeReport> {
        cb_json::from_str(s).ok()
    }

    /// Extract the attestation from a request, when present.
    pub fn from_request(req: &cb_netsim::HttpRequest) -> Option<ChallengeReport> {
        req.header(ATTESTATION_HEADER)
            .and_then(Self::from_header_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_fingerprint_is_clean() {
        let h = BrowserFingerprint::human_victim();
        assert!(!h.webdriver_visible);
        assert!(!h.cdc_artifacts);
        assert!(h.trusted_events);
        assert!(h.tls.looks_like_chrome());
        assert_eq!(h.ip_class, IpClass::Residential);
    }

    #[test]
    fn attestation_mirrors_fingerprint() {
        let mut f = BrowserFingerprint::human_victim();
        f.webdriver_visible = true;
        f.ip_class = IpClass::Datacenter;
        let a = f.attestation();
        assert!(a.webdriver_visible);
        assert_eq!(a.ip_class, IpClass::Datacenter);
        assert_eq!(a.user_agent, f.user_agent);
    }

    #[test]
    fn header_round_trip() {
        let a = BrowserFingerprint::human_victim().attestation();
        let parsed = ChallengeReport::from_header_value(&a.to_header_value()).unwrap();
        assert_eq!(a, parsed);
        assert_eq!(ChallengeReport::from_header_value("garbage"), None);
    }

    #[test]
    fn from_request_reads_header() {
        let a = BrowserFingerprint::human_victim().attestation();
        let mut req = cb_netsim::HttpRequest::get("https://x.example/");
        req.set_header(ATTESTATION_HEADER, &a.to_header_value());
        assert_eq!(ChallengeReport::from_request(&req), Some(a));
        let bare = cb_netsim::HttpRequest::get("https://x.example/");
        assert_eq!(ChallengeReport::from_request(&bare), None);
    }
}
