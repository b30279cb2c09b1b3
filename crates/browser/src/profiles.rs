//! The eight crawler profiles of Table I, each encoded by its documented
//! tells, plus ablation knobs for NotABot.

use crate::fingerprint::BrowserFingerprint;
use cb_json::{Deserialize, Serialize};
use cb_netsim::{IpClass, TlsFingerprint};
use std::fmt;

/// A crawler configuration the paper benchmarked (Table I), or a NotABot
/// ablation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrawlerProfile {
    /// Canadian Centre for Cyber Security's Java crawling utility: drives
    /// headless Chrome naively — automation flag, headless UA, non-browser
    /// header set.
    Kangooroo,
    /// The AIL project's Playwright-based capture system: hides the basics
    /// but leaks CDP artifacts and Playwright's header ordering.
    Lacus,
    /// Puppeteer with `puppeteer-extra-plugin-stealth`: masks
    /// `navigator.webdriver` and headless markers, but runs headless with
    /// request interception (the caching-header tell) and CDP leakage.
    PuppeteerStealth,
    /// Selenium with the `selenium-stealth` package: chromedriver `cdc_`
    /// globals remain.
    SeleniumStealth,
    /// `undetected_chromedriver` in its default non-headless mode: patched
    /// driver (no `cdc_`), real Chrome TLS, clean headers — but CDP
    /// `Runtime` leakage and untrusted synthetic events remain.
    UndetectedChromedriver,
    /// `undetected_chromedriver` forced headless — the Table I footnote:
    /// it passes BotD *only* in non-headless mode.
    UndetectedChromedriverHeadless,
    /// `nodriver`: CDP-level automation without chromedriver or
    /// `Runtime.enable`; trusted input events.
    Nodriver,
    /// `Selenium-Driverless`: same approach as nodriver.
    SeleniumDriverless,
    /// The paper's crawler: real non-headless Chrome on physical hardware,
    /// AutomationControlled disabled, no request interception, trusted
    /// synthetic mouse movement, 4G mobile egress.
    NotABot,
    /// Ablation: NotABot with the AutomationControlled flag left on.
    NotABotWebdriverVisible,
    /// Ablation: NotABot with request interception enabled (the
    /// caching-header anomaly back in place).
    NotABotWithInterception,
    /// Ablation: NotABot without trusted synthetic input.
    NotABotUntrustedEvents,
    /// Ablation: NotABot egressing from a datacenter instead of 4G.
    NotABotDatacenterIp,
    /// Ablation: NotABot headless (UA marker visible).
    NotABotHeadless,
}

impl CrawlerProfile {
    /// The seven open-source baselines plus NotABot — Table I's columns.
    pub fn table1() -> [CrawlerProfile; 8] {
        [
            CrawlerProfile::Kangooroo,
            CrawlerProfile::Lacus,
            CrawlerProfile::PuppeteerStealth,
            CrawlerProfile::SeleniumStealth,
            CrawlerProfile::UndetectedChromedriver,
            CrawlerProfile::Nodriver,
            CrawlerProfile::SeleniumDriverless,
            CrawlerProfile::NotABot,
        ]
    }

    /// NotABot single-feature knock-outs (the A1 ablation study).
    pub fn ablations() -> [CrawlerProfile; 5] {
        [
            CrawlerProfile::NotABotWebdriverVisible,
            CrawlerProfile::NotABotWithInterception,
            CrawlerProfile::NotABotUntrustedEvents,
            CrawlerProfile::NotABotDatacenterIp,
            CrawlerProfile::NotABotHeadless,
        ]
    }

    /// Human-readable name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            CrawlerProfile::Kangooroo => "Kangooroo",
            CrawlerProfile::Lacus => "Lacus",
            CrawlerProfile::PuppeteerStealth => "Puppeteer + stealth plugin",
            CrawlerProfile::SeleniumStealth => "Selenium + stealth plugin",
            CrawlerProfile::UndetectedChromedriver => "undetected_chromedriver",
            CrawlerProfile::UndetectedChromedriverHeadless => "undetected_chromedriver (headless)",
            CrawlerProfile::Nodriver => "Nodriver",
            CrawlerProfile::SeleniumDriverless => "Selenium-Driverless",
            CrawlerProfile::NotABot => "NotABot",
            CrawlerProfile::NotABotWebdriverVisible => "NotABot w/ webdriver flag",
            CrawlerProfile::NotABotWithInterception => "NotABot w/ request interception",
            CrawlerProfile::NotABotUntrustedEvents => "NotABot w/o trusted events",
            CrawlerProfile::NotABotDatacenterIp => "NotABot on datacenter IP",
            CrawlerProfile::NotABotHeadless => "NotABot headless",
        }
    }

    /// Longest meta-refresh delay (seconds) this configuration waits out
    /// before giving up on a reloading page. The paper benchmarked every
    /// crawler "within a consistent environment" (§VII), so all the Table I
    /// profiles and ablations share NotABot's 60 s wait budget; adaptive
    /// timing arms override it per-visit via [`crate::Browser::with_patience`].
    pub fn patience_secs(self) -> u32 {
        match self {
            CrawlerProfile::Kangooroo
            | CrawlerProfile::Lacus
            | CrawlerProfile::PuppeteerStealth
            | CrawlerProfile::SeleniumStealth
            | CrawlerProfile::UndetectedChromedriver
            | CrawlerProfile::UndetectedChromedriverHeadless
            | CrawlerProfile::Nodriver
            | CrawlerProfile::SeleniumDriverless
            | CrawlerProfile::NotABot
            | CrawlerProfile::NotABotWebdriverVisible
            | CrawlerProfile::NotABotWithInterception
            | CrawlerProfile::NotABotUntrustedEvents
            | CrawlerProfile::NotABotDatacenterIp
            | CrawlerProfile::NotABotHeadless => 60,
        }
    }

    /// The fingerprint this configuration presents.
    pub fn fingerprint(self) -> BrowserFingerprint {
        let chrome_ua = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
                         (KHTML, like Gecko) Chrome/121.0.0.0 Safari/537.36";
        let headless_ua = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 \
                           (KHTML, like Gecko) HeadlessChrome/121.0.0.0 Safari/537.36";
        // The paper benchmarked every crawler "within a consistent
        // environment, including identical hardware and network conditions"
        // (§VII): the physical workstation and 4G egress are shared, and
        // only software tells differ. The NotABotDatacenterIp ablation
        // explores what changes when that is not true.
        let base = BrowserFingerprint {
            user_agent: chrome_ua.to_string(),
            webdriver_visible: false,
            ua_headless_marker: false,
            cdc_artifacts: false,
            runtime_domain_leak: true,
            cache_header_anomaly: false,
            header_order_anomaly: false,
            tls: TlsFingerprint::ChromeCdp,
            trusted_events: false,
            mouse_movement: false,
            physical_timing: true,
            ip_class: IpClass::MobileCarrier,
            language: "en-US".to_string(),
            timezone: "Europe/Paris".to_string(),
            screen: (1920, 1080),
        };
        match self {
            CrawlerProfile::Kangooroo => BrowserFingerprint {
                user_agent: headless_ua.to_string(),
                webdriver_visible: true,
                ua_headless_marker: true,
                header_order_anomaly: true,
                tls: TlsFingerprint::HeadlessLegacy,
                ..base
            },
            CrawlerProfile::Lacus => BrowserFingerprint {
                // Playwright masks webdriver/headless basics but keeps its
                // own header ordering.
                header_order_anomaly: true,
                ..base
            },
            CrawlerProfile::PuppeteerStealth => BrowserFingerprint {
                cache_header_anomaly: true,
                ..base
            },
            CrawlerProfile::SeleniumStealth => BrowserFingerprint {
                cdc_artifacts: true,
                ..base
            },
            CrawlerProfile::UndetectedChromedriver => BrowserFingerprint {
                tls: TlsFingerprint::ChromeReal,
                ..base
            },
            CrawlerProfile::UndetectedChromedriverHeadless => BrowserFingerprint {
                user_agent: headless_ua.to_string(),
                ua_headless_marker: true,
                tls: TlsFingerprint::ChromeReal,
                ..base
            },
            CrawlerProfile::Nodriver | CrawlerProfile::SeleniumDriverless => BrowserFingerprint {
                runtime_domain_leak: false,
                tls: TlsFingerprint::ChromeReal,
                trusted_events: true,
                mouse_movement: true,
                ..base
            },
            CrawlerProfile::NotABot => BrowserFingerprint {
                runtime_domain_leak: false,
                tls: TlsFingerprint::ChromeReal,
                trusted_events: true,
                mouse_movement: true,
                ..base
            },
            CrawlerProfile::NotABotWebdriverVisible => BrowserFingerprint {
                webdriver_visible: true,
                ..CrawlerProfile::NotABot.fingerprint()
            },
            CrawlerProfile::NotABotWithInterception => BrowserFingerprint {
                cache_header_anomaly: true,
                ..CrawlerProfile::NotABot.fingerprint()
            },
            CrawlerProfile::NotABotUntrustedEvents => BrowserFingerprint {
                trusted_events: false,
                mouse_movement: false,
                ..CrawlerProfile::NotABot.fingerprint()
            },
            CrawlerProfile::NotABotDatacenterIp => BrowserFingerprint {
                ip_class: IpClass::Datacenter,
                ..CrawlerProfile::NotABot.fingerprint()
            },
            CrawlerProfile::NotABotHeadless => BrowserFingerprint {
                ua_headless_marker: true,
                ..CrawlerProfile::NotABot.fingerprint()
            },
        }
    }
}

impl fmt::Display for CrawlerProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notabot_matches_paper_description() {
        let f = CrawlerProfile::NotABot.fingerprint();
        assert!(!f.webdriver_visible, "AutomationControlled disabled");
        assert!(!f.cache_header_anomaly, "no request interception");
        assert!(f.trusted_events, "CDP input is trusted");
        assert!(f.mouse_movement, "fake mouse movements");
        assert!(f.physical_timing, "physical Dell workstation");
        assert_eq!(f.ip_class, IpClass::MobileCarrier, "4G modem egress");
        assert!(!f.ua_headless_marker, "non-headless Chrome");
    }

    #[test]
    fn kangooroo_is_naive() {
        let f = CrawlerProfile::Kangooroo.fingerprint();
        assert!(f.webdriver_visible);
        assert!(f.ua_headless_marker);
        assert!(!f.tls.looks_like_chrome());
    }

    #[test]
    fn stealth_plugin_hides_webdriver_but_keeps_interception_tell() {
        let f = CrawlerProfile::PuppeteerStealth.fingerprint();
        assert!(!f.webdriver_visible);
        assert!(f.cache_header_anomaly);
        assert!(f.runtime_domain_leak);
    }

    #[test]
    fn selenium_stealth_keeps_cdc() {
        assert!(CrawlerProfile::SeleniumStealth.fingerprint().cdc_artifacts);
    }

    #[test]
    fn undetected_chromedriver_headless_variant_differs_only_in_headlessness() {
        let normal = CrawlerProfile::UndetectedChromedriver.fingerprint();
        let headless = CrawlerProfile::UndetectedChromedriverHeadless.fingerprint();
        assert!(!normal.ua_headless_marker);
        assert!(headless.ua_headless_marker);
        assert_eq!(normal.tls, headless.tls);
    }

    #[test]
    fn nodriver_and_driverless_share_approach() {
        let a = CrawlerProfile::Nodriver.fingerprint();
        let b = CrawlerProfile::SeleniumDriverless.fingerprint();
        assert_eq!(a, b);
        assert!(!a.runtime_domain_leak);
        assert!(a.trusted_events);
    }

    #[test]
    fn ablations_change_exactly_one_axis() {
        let base = CrawlerProfile::NotABot.fingerprint();
        let wd = CrawlerProfile::NotABotWebdriverVisible.fingerprint();
        assert!(wd.webdriver_visible && !base.webdriver_visible);
        assert_eq!(wd.ip_class, base.ip_class);

        let dc = CrawlerProfile::NotABotDatacenterIp.fingerprint();
        assert_eq!(dc.ip_class, IpClass::Datacenter);
        assert_eq!(dc.trusted_events, base.trusted_events);
    }

    #[test]
    fn table1_has_eight_columns() {
        let names: Vec<&str> = CrawlerProfile::table1().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 8);
        assert_eq!(names[7], "NotABot");
        assert_eq!(names[0], "Kangooroo");
    }
}
