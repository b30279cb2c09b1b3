//! Google reCAPTCHA v3: invisible, score-based verification.
//!
//! §V-C2(b): kits run reCAPTCHA v3 *in the background after* Turnstile,
//! "thereby preventing the need for victims to interact with two
//! CAPTCHA-like solutions consecutively". v3 returns a score in `[0, 1]`
//! (1.0 = very likely human) with a site-chosen acceptance threshold.

use crate::Detector;
use cb_browser::ChallengeReport;

/// The invisible scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReCaptchaV3 {
    /// Minimum accepted score (Google's default guidance is 0.5).
    pub threshold: f64,
}

impl Default for ReCaptchaV3 {
    fn default() -> Self {
        ReCaptchaV3 { threshold: 0.5 }
    }
}

impl ReCaptchaV3 {
    /// The human-likelihood score for a client.
    pub fn score(&self, r: &ChallengeReport) -> f64 {
        let mut score = 1.0;
        if r.webdriver_visible {
            score -= 0.5;
        }
        if r.ua_headless_marker {
            score -= 0.4;
        }
        if r.cdc_artifacts {
            score -= 0.4;
        }
        if r.runtime_domain_leak {
            score -= 0.2;
        }
        if !r.trusted_events {
            score -= 0.2;
        }
        if !r.mouse_movement {
            score -= 0.1;
        }
        score -= r.ip_class.reputation_penalty() as f64 / 400.0;
        score.clamp(0.0, 1.0)
    }
}

impl Detector for ReCaptchaV3 {
    fn name(&self) -> &'static str {
        "reCAPTCHA v3"
    }

    fn evaluate(&self, r: &ChallengeReport) -> crate::Verdict {
        let score = self.score(r);
        crate::Verdict {
            human: score >= self.threshold,
            score: ((1.0 - score) * 100.0) as u32,
            signals: vec![format!("recaptcha score {score:.2}")],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_browser::{BrowserFingerprint, CrawlerProfile};

    #[test]
    fn human_scores_high() {
        let r = BrowserFingerprint::human_victim().attestation();
        let rc = ReCaptchaV3::default();
        assert!(rc.score(&r) > 0.9);
        assert!(rc.evaluate(&r).is_human());
    }

    #[test]
    fn notabot_passes_v3() {
        let r = CrawlerProfile::NotABot.fingerprint().attestation();
        assert!(ReCaptchaV3::default().evaluate(&r).is_human());
    }

    #[test]
    fn naive_crawler_scores_low() {
        let r = CrawlerProfile::Kangooroo.fingerprint().attestation();
        let score = ReCaptchaV3::default().score(&r);
        assert!(score < 0.3, "score {score}");
    }

    #[test]
    fn scores_are_bounded() {
        for p in CrawlerProfile::table1() {
            let s = ReCaptchaV3::default().score(&p.fingerprint().attestation());
            assert!((0.0..=1.0).contains(&s), "{p}: {s}");
        }
    }

    #[test]
    fn threshold_is_configurable() {
        let r = CrawlerProfile::UndetectedChromedriver
            .fingerprint()
            .attestation();
        let lenient = ReCaptchaV3 { threshold: 0.2 };
        let strict = ReCaptchaV3 { threshold: 0.9 };
        assert!(lenient.evaluate(&r).is_human());
        assert!(!strict.evaluate(&r).is_human());
    }
}
