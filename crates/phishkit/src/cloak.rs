//! Cloaking configuration: the §III taxonomy as data.
//!
//! A kit's [`CloakConfig`] composes independent server-side and client-side
//! techniques; the corpus generator draws configurations at the §V-C2
//! prevalence rates (Turnstile 74.4%, reCAPTCHA 24.8%, console hijack ≥295
//! cases, …).

use cb_json::{Deserialize, Serialize};
use cb_sim::SimTime;

/// Server-side cloaking: decided from request attributes before any HTML is
/// served (§III-B2).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerCloak {
    /// Delayed activation: before this instant every visitor sees the
    /// benign page (the "send at night, activate later" tactic).
    pub activate_at: Option<SimTime>,
    /// Serve the phish only to mobile User-Agents (QR-code campaigns: the
    /// URL "should normally be decoded by a mobile phone").
    pub mobile_ua_only: bool,
    /// Refuse datacenter/VPN source addresses (IP blocklists of known
    /// scanners).
    pub block_datacenter_ips: bool,
    /// Valid URL tokens; requests lacking one are bounced to the benign
    /// page. Tokens can be individually burned.
    pub valid_tokens: Vec<String>,
    /// Burned (disabled) tokens.
    pub burned_tokens: Vec<String>,
}

impl ServerCloak {
    /// `true` if `token` grants access.
    pub fn token_ok(&self, token: Option<&str>) -> bool {
        if self.valid_tokens.is_empty() {
            return true;
        }
        match token {
            Some(t) => {
                self.valid_tokens.iter().any(|v| v == t)
                    && !self.burned_tokens.iter().any(|b| b == t)
            }
            None => false,
        }
    }
}

/// Client-side cloaking: what the served page does in the browser (§III-B1,
/// §V-C2).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientCloak {
    /// Cloudflare Turnstile gate before the landing page (74.4% of
    /// credential-harvesting messages).
    pub turnstile: bool,
    /// Google reCAPTCHA v3 run in the background after Turnstile (24.8%).
    pub recaptcha_v3: bool,
    /// BotD / FingerprintJS library loaded (the 5-message July cluster).
    pub fingerprint_library: bool,
    /// UA + timezone + language association check (≥15 messages).
    pub env_gate: bool,
    /// One-Time Password gate: the login page hides behind an OTP prompt
    /// (47 messages).
    pub otp_gate: bool,
    /// Custom math challenge–response (11 messages).
    pub math_challenge: bool,
    /// Console-method hijacking (≥295 messages).
    pub console_hijack: bool,
    /// Recurring `debugger`-statement timer (≥10 messages).
    pub debugger_timer: bool,
    /// Right-click / devtools key blocking (39 messages).
    pub block_devtools: bool,
    /// `hue-rotate(4deg)` on the whole document (167 pages).
    pub hue_rotate: bool,
    /// Exfiltrate visitor IP via an httpbin-style echo before loading the
    /// page (145 messages).
    pub exfil_visitor_data: bool,
    /// Additionally enrich the IP via an ipapi-style service (83 of the
    /// 145).
    pub exfil_with_geo: bool,
    /// Victim-database check: extract the email from the tokenized URL and
    /// ask the C2 whether it is a known target (151 + 143 messages).
    pub victim_db_check: bool,
    /// Hotlink the logo/background from the impersonated organization
    /// (29.8% of lookalike pages).
    pub hotlink_brand_resources: bool,
}

/// Kit-side counter-adaptation: memory the kit keeps *across* requests, so
/// a crawler that finds a working profile cannot reuse it forever. This is
/// the cloaker's move in the arms race (DESIGN.md §16): per-egress-class
/// reputation, returning-device blocklists, and a delayed reveal that only
/// patient visitors wait out. All thresholds default to 0 = off, so corpus
/// campaigns are byte-for-byte unaffected unless a config opts in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterCloak {
    /// Burn an egress class (datacenter / VPN / residential / mobile) after
    /// this many core-path requests from it: repeat visits from one class
    /// read as a scanner farm rotating addresses. 0 = off.
    #[serde(default)]
    pub egress_burn_after: u32,
    /// Blocklist a returning device fingerprint
    /// ([`cb_botdetect::report_signature`]) after this many sightings:
    /// the same measured environment probing again and again is a crawler,
    /// whatever address it arrives from. 0 = off.
    #[serde(default)]
    pub profile_burn_after: u32,
    /// Serve a meta-refresh holding page with this delay before revealing
    /// anything: crawlers that "do not wait enough time before the page is
    /// reloaded with malicious content" never see past it. 0 = off.
    #[serde(default)]
    pub reveal_delay_secs: u32,
}

impl CounterCloak {
    /// `true` when any counter-adaptation is enabled.
    pub fn is_active(&self) -> bool {
        self.egress_burn_after > 0 || self.profile_burn_after > 0 || self.reveal_delay_secs > 0
    }
}

/// A kit's complete cloaking configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CloakConfig {
    /// Server-side techniques.
    pub server: ServerCloak,
    /// Client-side techniques.
    pub client: ClientCloak,
    /// Cross-request counter-adaptation memory thresholds.
    #[serde(default)]
    pub counter: CounterCloak,
}

impl CloakConfig {
    /// No cloaking at all (plain lookalike).
    pub fn none() -> CloakConfig {
        CloakConfig::default()
    }

    /// The modal configuration the paper observed: Turnstile in front,
    /// reCAPTCHA v3 behind it, console hijack, brand hotlinking.
    pub fn typical_2024() -> CloakConfig {
        CloakConfig {
            server: ServerCloak::default(),
            client: ClientCloak {
                turnstile: true,
                recaptcha_v3: true,
                console_hijack: true,
                hotlink_brand_resources: true,
                ..ClientCloak::default()
            },
            counter: CounterCloak::default(),
        }
    }

    /// Count of distinct client-side techniques enabled (analysis metric).
    pub fn client_technique_count(&self) -> usize {
        let c = &self.client;
        [
            c.turnstile,
            c.recaptcha_v3,
            c.fingerprint_library,
            c.env_gate,
            c.otp_gate,
            c.math_challenge,
            c.console_hijack,
            c.debugger_timer,
            c.block_devtools,
            c.hue_rotate,
            c.exfil_visitor_data,
            c.victim_db_check,
        ]
        .iter()
        .filter(|&&b| b)
        .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_logic() {
        let mut s = ServerCloak::default();
        assert!(s.token_ok(None), "no tokens configured: open access");
        s.valid_tokens = vec!["dhfYWfH".into(), "aBcDeF1".into()];
        assert!(s.token_ok(Some("dhfYWfH")));
        assert!(!s.token_ok(Some("wrong")));
        assert!(!s.token_ok(None));
        s.burned_tokens = vec!["dhfYWfH".into()];
        assert!(!s.token_ok(Some("dhfYWfH")), "burned token is refused");
        assert!(s.token_ok(Some("aBcDeF1")));
    }

    #[test]
    fn typical_config_matches_paper_mode() {
        let c = CloakConfig::typical_2024();
        assert!(c.client.turnstile);
        assert!(c.client.recaptcha_v3);
        assert!(c.client.console_hijack);
        assert!(!c.client.otp_gate);
        // hotlinking is a construction choice, not an evasion technique,
        // so it does not count.
        assert_eq!(c.client_technique_count(), 3);
    }

    #[test]
    fn technique_count_counts_all_axes() {
        let mut c = CloakConfig::none();
        assert_eq!(c.client_technique_count(), 0);
        c.client.hue_rotate = true;
        c.client.debugger_timer = true;
        assert_eq!(c.client_technique_count(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let c = CloakConfig::typical_2024();
        let json = cb_json::to_string(&c).unwrap();
        let back: CloakConfig = cb_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
