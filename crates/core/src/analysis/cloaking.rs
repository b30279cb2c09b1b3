//! §V-C: prevalence of evasion techniques, measured from crawl
//! observations (not ground truth).

use crate::extract::ExtractionSource;
use crate::logging::ScanRecord;
use cb_json::{Deserialize, Serialize};
use cb_phishgen::MessageClass;
use std::collections::BTreeSet;
use std::fmt;

/// Measured prevalence counts over the scanned corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloakingPrevalence {
    /// Messages whose pages loaded Cloudflare Turnstile challenge
    /// resources (the loaded-resource observable the paper counts: 943).
    pub turnstile_messages: usize,
    /// Messages whose pages loaded reCAPTCHA v3 resources (314).
    pub recaptcha_messages: usize,
    /// Messages with console-hijacking scripts.
    pub console_hijack_messages: usize,
    /// Messages with `debugger`-timer scripts.
    pub debugger_timer_messages: usize,
    /// Messages whose pages exfiltrated visitor data (httpbin/ipapi chain).
    pub exfil_messages: usize,
    /// … of which used an httpbin-style IP echo.
    pub httpbin_messages: usize,
    /// … of which used an ipapi-style enrichment.
    pub ipapi_messages: usize,
    /// Messages whose pages ran a victim-database check.
    pub victim_check_messages: usize,
    /// Distinct domains running victim-check script traffic.
    pub victim_check_domains: usize,
    /// Messages with hue-rotated pages.
    pub hue_rotate_messages: usize,
    /// Messages gated by OTP prompts (solved or not).
    pub otp_gate_messages: usize,
    /// Messages gated by math challenges.
    pub math_challenge_messages: usize,
    /// Messages delivered via QR codes.
    pub qr_messages: usize,
    /// … of which faulty (strict-scanner-evading) QR codes.
    pub faulty_qr_messages: usize,
    /// Noise-padded messages (long blank-line runs + bulk).
    pub noise_padded_messages: usize,
    /// Messages passing all three email authentication checks.
    pub auth_pass_messages: usize,
    /// Total messages scanned.
    pub total: usize,
}

/// Measure prevalence from scan records.
pub fn prevalence(records: &[ScanRecord]) -> CloakingPrevalence {
    let mut p = CloakingPrevalence {
        total: records.len(),
        ..CloakingPrevalence::default()
    };
    let mut vc_domains: BTreeSet<String> = BTreeSet::new();
    for r in records {
        if r.auth_pass {
            p.auth_pass_messages += 1;
        }
        let qr = r
            .extracted
            .iter()
            .any(|e| matches!(e.source, ExtractionSource::QrCode { .. }));
        if qr {
            p.qr_messages += 1;
        }
        if r.has_faulty_qr() {
            p.faulty_qr_messages += 1;
        }
        if r.blank_line_run >= 8 && r.body_bytes > 1500 {
            p.noise_padded_messages += 1;
        }
        if r.class != MessageClass::ActivePhish {
            continue;
        }
        let mut turnstile = false;
        let mut recaptcha = false;
        let mut console = false;
        let mut debugger = false;
        let mut exfil = false;
        let mut httpbin = false;
        let mut ipapi = false;
        let mut victim = false;
        let mut hue = false;
        let mut otp = false;
        let mut math = false;
        for v in &r.visits {
            console |= v.console_hijacked;
            debugger |= v.debugger_hits > 0;
            for (url, _, _) in &v.exfil {
                if url.contains(cb_phishkit::infrastructure::TURNSTILE_HOST) {
                    turnstile = true;
                }
                if url.contains(cb_phishkit::infrastructure::RECAPTCHA_HOST) {
                    recaptcha = true;
                }
                if url.contains(cb_phishkit::infrastructure::COLLECT_PATH) {
                    exfil = true;
                }
                if url.contains(cb_phishkit::infrastructure::HTTPBIN_HOST) {
                    httpbin = true;
                }
                if url.contains(cb_phishkit::infrastructure::IPAPI_HOST) {
                    ipapi = true;
                }
                if url.contains(cb_phishkit::infrastructure::VICTIM_CHECK_PATH) {
                    victim = true;
                    if let Some(d) = v.landing_domain() {
                        vc_domains.insert(d);
                    }
                }
            }
            hue |= v.hue_rotated;
            otp |= v.gates_solved.iter().any(|g| g == "otp");
            math |= v.gates_solved.iter().any(|g| g == "math");
        }
        p.turnstile_messages += turnstile as usize;
        p.recaptcha_messages += recaptcha as usize;
        p.console_hijack_messages += console as usize;
        p.debugger_timer_messages += debugger as usize;
        p.exfil_messages += exfil as usize;
        p.httpbin_messages += httpbin as usize;
        p.ipapi_messages += ipapi as usize;
        p.victim_check_messages += victim as usize;
        p.hue_rotate_messages += hue as usize;
        p.otp_gate_messages += otp as usize;
        p.math_challenge_messages += math as usize;
    }
    p.victim_check_domains = vc_domains.len();
    p
}

/// Turnstile/ReCaptcha prevalence cannot be observed from a *successful*
/// NotABot crawl alone (the challenge is invisible when passed); the paper
/// measures it from the loaded challenge resources. We measure it by
/// re-visiting each credential-harvesting landing URL with a crawler that
/// *fails* challenges (Puppeteer + stealth): a site that serves it benign
/// content while serving NotABot the phish is challenge-gated.
pub fn measure_challenge_gating(
    world: &cb_netsim::Internet,
    records: &[ScanRecord],
) -> (usize, usize) {
    use cb_browser::{Browser, CrawlerProfile};
    let notabot_sees_phish = |r: &ScanRecord| r.phish_visit().is_some();
    let weak = Browser::new(CrawlerProfile::PuppeteerStealth);
    let mut gated_messages = 0usize;
    let mut total_cred = 0usize;
    for r in records {
        if !notabot_sees_phish(r) {
            continue;
        }
        total_cred += 1;
        let url = r
            .phish_visit()
            .map(|v| v.requested_url.clone())
            .expect("phish visit present");
        let weak_visit = weak.visit(world, &url);
        if !weak_visit.shows_login_form() {
            gated_messages += 1;
        }
    }
    (gated_messages, total_cred)
}

impl fmt::Display for CloakingPrevalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "auth pass:          {:>6} / {}",
            self.auth_pass_messages, self.total
        )?;
        writeln!(f, "noise padded:       {:>6}", self.noise_padded_messages)?;
        writeln!(
            f,
            "qr messages:        {:>6} (faulty {})",
            self.qr_messages, self.faulty_qr_messages
        )?;
        writeln!(f, "turnstile loaded:   {:>6}", self.turnstile_messages)?;
        writeln!(f, "recaptcha loaded:   {:>6}", self.recaptcha_messages)?;
        writeln!(f, "console hijack:     {:>6}", self.console_hijack_messages)?;
        writeln!(f, "debugger timer:     {:>6}", self.debugger_timer_messages)?;
        writeln!(
            f,
            "visitor exfil:      {:>6} (httpbin {}, ipapi {})",
            self.exfil_messages, self.httpbin_messages, self.ipapi_messages
        )?;
        writeln!(
            f,
            "victim-db checks:   {:>6} over {} domains",
            self.victim_check_messages, self.victim_check_domains
        )?;
        writeln!(f, "hue-rotate:         {:>6}", self.hue_rotate_messages)?;
        writeln!(f, "otp gates:          {:>6}", self.otp_gate_messages)?;
        writeln!(f, "math challenges:    {:>6}", self.math_challenge_messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CrawlerBox;
    use cb_phishgen::{Corpus, CorpusSpec};
    use std::sync::OnceLock;

    fn scan(scale: f64) -> (Corpus, Vec<ScanRecord>) {
        let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(scale), 55);
        let records = CrawlerBox::new(&corpus.world).scan_all(&corpus.messages);
        (corpus, records)
    }

    /// The scale-0.2 scan, generated once and shared by the three tests
    /// that only read it.
    fn scan_02() -> &'static (Corpus, Vec<ScanRecord>) {
        static SCAN: OnceLock<(Corpus, Vec<ScanRecord>)> = OnceLock::new();
        SCAN.get_or_init(|| scan(0.2))
    }

    #[test]
    fn auth_always_passes() {
        let (_, recs) = scan(0.03);
        let p = prevalence(&recs);
        assert_eq!(
            p.auth_pass_messages, p.total,
            "§V-C1: all messages pass auth"
        );
    }

    #[test]
    fn measured_counts_track_ground_truth() {
        let (corpus, recs) = scan_02();
        let p = prevalence(recs);
        let truth = |f: &dyn Fn(&cb_phishkit::CloakConfig) -> bool| -> usize {
            corpus
                .messages
                .iter()
                .filter(|m| {
                    m.truth
                        .campaign
                        .map(|ci| f(&corpus.campaigns[ci].cloak))
                        .unwrap_or(false)
                })
                .count()
        };
        let turnstile_truth = truth(&|c| c.client.turnstile);
        assert!(
            p.turnstile_messages.abs_diff(turnstile_truth) <= turnstile_truth / 10 + 3,
            "turnstile: measured {} vs truth {turnstile_truth}",
            p.turnstile_messages
        );
        let recaptcha_truth = truth(&|c| c.client.recaptcha_v3);
        assert!(
            p.recaptcha_messages.abs_diff(recaptcha_truth) <= recaptcha_truth / 10 + 3,
            "recaptcha: measured {} vs truth {recaptcha_truth}",
            p.recaptcha_messages
        );
        let hijack_truth = truth(&|c| c.client.console_hijack);
        assert!(
            p.console_hijack_messages.abs_diff(hijack_truth) <= hijack_truth / 5 + 3,
            "console hijack: measured {} vs truth {hijack_truth}",
            p.console_hijack_messages
        );
        let hue_truth = truth(&|c| c.client.hue_rotate);
        assert!(
            p.hue_rotate_messages.abs_diff(hue_truth) <= hue_truth / 5 + 3,
            "hue: measured {} vs truth {hue_truth}",
            p.hue_rotate_messages
        );
        let otp_truth = truth(&|c| c.client.otp_gate);
        assert!(
            p.otp_gate_messages.abs_diff(otp_truth) <= otp_truth / 4 + 3,
            "otp: measured {} vs truth {otp_truth}",
            p.otp_gate_messages
        );
    }

    #[test]
    fn faulty_qr_counted() {
        let (corpus, recs) = scan_02();
        let p = prevalence(recs);
        let truth = corpus
            .messages
            .iter()
            .filter(|m| {
                matches!(
                    m.truth.carrier,
                    cb_phishgen::messages::Carrier::QrCode { faulty: true }
                )
            })
            .count();
        assert_eq!(p.faulty_qr_messages, truth);
        assert!(p.qr_messages >= p.faulty_qr_messages);
    }

    #[test]
    fn challenge_gating_measured_by_weak_crawler_differential() {
        let (corpus, recs) = scan(0.1);
        let (gated, total) = measure_challenge_gating(&corpus.world, &recs);
        assert!(total > 0);
        let rate = gated as f64 / total as f64;
        // spec rate: 943/1267 ≈ 74% carry Turnstile (plus reCAPTCHA-only
        // sites also gate the weak crawler)
        assert!((0.5..=1.0).contains(&rate), "gating rate {rate}");
    }

    #[test]
    fn noise_detection_matches_truth() {
        let (corpus, recs) = scan_02();
        let p = prevalence(recs);
        let truth = corpus
            .messages
            .iter()
            .filter(|m| m.truth.noise_padded)
            .count();
        assert!(
            p.noise_padded_messages.abs_diff(truth) <= truth / 10 + 2,
            "noise: measured {} vs truth {truth}",
            p.noise_padded_messages
        );
    }

    #[test]
    fn display_renders() {
        let (_, recs) = scan(0.02);
        assert!(prevalence(&recs).to_string().contains("qr messages"));
    }
}
