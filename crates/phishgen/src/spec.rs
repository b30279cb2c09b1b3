//! The corpus specification: every number the paper reports, as data.

use cb_json::{Deserialize, Serialize};

/// All generator parameters, defaulting to the paper's published values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Linear scale factor on all counts (1.0 = the paper's 5,181
    /// messages). Use small scales for tests.
    pub scale: f64,

    /// Messages confirmed malicious per month, January–October 2024.
    /// Sums to 5,181 with mean 518.1 (Figure 2); the series continues the
    /// downward trend from late 2023.
    pub monthly_2024: [usize; 10],
    /// The March–December 2023 comparison series (mean 885.2, sd 454.7;
    /// final three months 1,959 / 1,533 / 1,249). Paired with 2024 by
    /// position for the footnote-1 t-test.
    pub monthly_2023: [usize; 10],

    /// Class mix of the 5,181 (§V): counts are derived from the active /
    /// no-resource / interaction / download counts; error-pages absorb the
    /// remainder (the paper's published 823 overshoots its own total by 5 —
    /// see EXPERIMENTS.md).
    pub no_resource: usize,
    /// Messages leading to pages that demand interaction (4.5%).
    pub interaction_required: usize,
    /// Messages delivering file downloads (ZIP→HTA chains).
    pub downloads: usize,
    /// Messages leading to an active phishing page (29.9%).
    pub active_phish: usize,

    /// Spear-phishing messages among the active set (73.3% = 1,137).
    pub spear: usize,
    /// Unique non-targeted lookalike pages (130, distributed per §V-B).
    pub nontargeted_unique_pages: usize,
    /// Non-targeted messages carrying an HTML attachment (29).
    pub html_attachment_messages: usize,
    /// HTML attachments that redirect locally without changing the URL (19).
    pub html_local_redirects: usize,

    /// Distinct landing domains (522).
    pub landing_domains: usize,
    /// Table II: `(tld, domain_count)` over the 522.
    pub tld_distribution: Vec<(String, usize)>,
    /// Domains using deceptive naming (82 of 522; zero punycode).
    pub lexical_deceptive_domains: usize,
    /// Maximum reported messages on one domain (58).
    pub max_messages_per_domain: usize,

    /// Median `timedeltaA` target in hours (575 ≈ 24 days).
    pub median_tdelta_a_hours: f64,
    /// Median `timedeltaB` target in hours (185 ≈ 8 days).
    pub median_tdelta_b_hours: f64,
    /// Domains with `timedeltaA` > 90 days (102).
    pub tdelta_a_over_90d: usize,
    /// Domains with `timedeltaB` > 90 days (5, of which 4 compromised).
    pub tdelta_b_over_90d: usize,
    /// Compromised legitimate domains among the outliers (≥20).
    pub compromised_domains: usize,
    /// Abused legitimate hosting services (9: vercel.app-style platforms).
    pub abused_service_domains: usize,

    /// Credential-harvesting messages (1,267 = 1,137 spear + 130
    /// non-targeted uniques).
    pub turnstile_messages: usize,
    /// reCAPTCHA v3 messages (314, typically layered behind Turnstile).
    pub recaptcha_messages: usize,
    /// Console-hijacking messages (≥295).
    pub console_hijack_messages: usize,
    /// Debugger-timer messages (≥10).
    pub debugger_timer_messages: usize,
    /// Right-click/devtools-blocking messages (39).
    pub devtools_block_messages: usize,
    /// UA+timezone+language gate messages (≥15).
    pub env_gate_messages: usize,
    /// OTP-gate messages (47).
    pub otp_gate_messages: usize,
    /// Math-challenge messages (11).
    pub math_challenge_messages: usize,
    /// BotD/FingerprintJS library messages (5, July 9–18 cluster).
    pub fingerprint_lib_messages: usize,
    /// hue-rotate messages (103 distinct messages / 167 pages).
    pub hue_rotate_messages: usize,
    /// httpbin-style IP echo usage (145).
    pub httpbin_messages: usize,
    /// ipapi-style enrichment usage (83).
    pub ipapi_messages: usize,
    /// Victim-DB check script A (151 messages / 38 domains).
    pub victim_check_a_messages: usize,
    /// Victim-DB check script B (143 messages / 57 domains).
    pub victim_check_b_messages: usize,
    /// Hotlinked brand resources (29.8% of the 1,137 lookalikes ⇒ 339).
    pub hotlink_messages: usize,

    /// Noise-padded messages (≥270).
    pub noise_padded_messages: usize,
    /// Messages with QR codes embedding the landing URL.
    pub qr_messages: usize,
    /// Of those, faulty QR codes exploiting the scanner bug (35).
    pub faulty_qr_messages: usize,
    /// Messages whose landing URL hides in an image (OCR path).
    pub image_url_messages: usize,
    /// Messages with PDF attachments carrying the URL.
    pub pdf_messages: usize,
    /// Messages with nested EML attachments carrying the URL.
    pub eml_messages: usize,

    /// Fraction of URLs that transiently fault on their first attempts
    /// (0.0 = the perfectly reliable network the seed assumed). When
    /// positive, corpus generation installs a deterministic
    /// `cb_netsim::FaultPlan` on the world after build.
    #[serde(default)]
    pub transient_fault_rate: f64,
    /// Most consecutive attempts a flaky URL fails before recovering.
    /// Keeping this at or below the crawl supervisor's retry ceiling
    /// guarantees supervised scans converge to fault-free results.
    #[serde(default = "default_fault_max_consecutive")]
    pub fault_max_consecutive: u32,
}

fn default_fault_max_consecutive() -> u32 {
    2
}

impl CorpusSpec {
    /// The published parameters.
    pub fn paper() -> CorpusSpec {
        CorpusSpec {
            scale: 1.0,
            // Sums to 5,181; mean 518.1; continues the 2023 downward trend.
            monthly_2024: [1085, 880, 700, 565, 480, 420, 330, 290, 230, 201],
            // Mar..Dec 2023; the last three are the published 1,959 / 1,533
            // / 1,249; earlier months chosen for mean ≈ 885.
            monthly_2023: [455, 500, 545, 585, 625, 665, 715, 1959, 1533, 1249],
            no_resource: 2572,
            interaction_required: 235,
            downloads: 5,
            active_phish: 1551,
            spear: 1137,
            nontargeted_unique_pages: 130,
            html_attachment_messages: 29,
            html_local_redirects: 19,
            landing_domains: 522,
            tld_distribution: [
                (".com", 262),
                (".ru", 48),
                (".dev", 45),
                (".buzz", 27),
                (".tech", 9),
                (".xyz", 9),
                (".org", 8),
                (".click", 7),
                (".br", 7),
                // "Other": spread across a few plausible TLDs totalling 100
                (".net", 40),
                (".io", 30),
                (".site", 30),
            ]
            .iter()
            .map(|(t, n)| (t.to_string(), *n))
            .collect(),
            lexical_deceptive_domains: 82,
            max_messages_per_domain: 58,
            median_tdelta_a_hours: 575.0,
            median_tdelta_b_hours: 185.0,
            tdelta_a_over_90d: 102,
            tdelta_b_over_90d: 5,
            compromised_domains: 20,
            abused_service_domains: 9,
            turnstile_messages: 943,
            recaptcha_messages: 314,
            console_hijack_messages: 295,
            debugger_timer_messages: 10,
            devtools_block_messages: 39,
            env_gate_messages: 15,
            otp_gate_messages: 47,
            math_challenge_messages: 11,
            fingerprint_lib_messages: 5,
            hue_rotate_messages: 103,
            httpbin_messages: 145,
            ipapi_messages: 83,
            victim_check_a_messages: 151,
            victim_check_b_messages: 143,
            hotlink_messages: 339,
            noise_padded_messages: 270,
            qr_messages: 120,
            faulty_qr_messages: 35,
            image_url_messages: 60,
            pdf_messages: 80,
            eml_messages: 40,
            transient_fault_rate: 0.0,
            fault_max_consecutive: default_fault_max_consecutive(),
        }
    }

    /// Apply a linear scale to all counts.
    pub fn with_scale(mut self, scale: f64) -> CorpusSpec {
        assert!(scale > 0.0 && scale <= 1.0, "scale in (0, 1]");
        self.scale = scale;
        self
    }

    /// Enable transient-fault injection at `rate` (fraction of URLs that
    /// are flaky, in `[0, 1]`).
    pub fn with_fault_rate(mut self, rate: f64) -> CorpusSpec {
        assert!((0.0..=1.0).contains(&rate), "fault rate in [0, 1]");
        self.transient_fault_rate = rate;
        self
    }

    /// A count under the current scale (rounded, minimum 1 when the
    /// unscaled count is nonzero).
    pub fn scaled(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        ((n as f64 * self.scale).round() as usize).max(1)
    }

    /// Total malicious messages across the ten months (pre-scaling).
    pub fn total_messages(&self) -> usize {
        self.monthly_2024.iter().sum()
    }

    /// The error-page class count: the remainder after the published
    /// classes (818 — the paper's own 823 overshoots its total by 5).
    pub fn error_pages(&self) -> usize {
        self.total_messages()
            - self.no_resource
            - self.interaction_required
            - self.downloads
            - self.active_phish
    }

    /// Credential-harvesting messages (spear + non-targeted uniques).
    pub fn credential_harvesting(&self) -> usize {
        self.spear + self.nontargeted_unique_pages
    }
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monthly_2024_matches_figure_2() {
        let s = CorpusSpec::paper();
        assert_eq!(s.total_messages(), 5181);
        let mean = s.total_messages() as f64 / 10.0;
        assert!((mean - 518.1).abs() < 1e-9);
        // downward trend
        assert!(s.monthly_2024.windows(2).all(|w| w[0] > w[1]));
        // standard deviation close to the published 278.4
        let sd = {
            let m = mean;
            let var: f64 = s
                .monthly_2024
                .iter()
                .map(|&x| (x as f64 - m).powi(2))
                .sum::<f64>()
                / 10.0;
            var.sqrt()
        };
        assert!((sd - 278.4).abs() < 20.0, "sd {sd}");
    }

    #[test]
    fn monthly_2023_matches_text() {
        let s = CorpusSpec::paper();
        assert_eq!(&s.monthly_2023[7..], &[1959, 1533, 1249]);
        let mean = s.monthly_2023.iter().sum::<usize>() as f64 / 10.0;
        assert!((mean - 885.2).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn class_mix_percentages() {
        let s = CorpusSpec::paper();
        let total = s.total_messages() as f64;
        assert!((s.no_resource as f64 / total - 0.496).abs() < 0.002);
        assert!((s.active_phish as f64 / total - 0.299).abs() < 0.002);
        assert!((s.interaction_required as f64 / total - 0.045).abs() < 0.002);
        assert_eq!(s.error_pages(), 818);
        assert!((s.error_pages() as f64 / total - 0.159).abs() < 0.003);
    }

    #[test]
    fn tld_distribution_sums_to_landing_domains() {
        let s = CorpusSpec::paper();
        let total: usize = s.tld_distribution.iter().map(|(_, n)| n).sum();
        assert_eq!(total, s.landing_domains);
        // .com share is 50.2%
        let com = s
            .tld_distribution
            .iter()
            .find(|(t, _)| t == ".com")
            .unwrap()
            .1;
        assert!((com as f64 / s.landing_domains as f64 - 0.502).abs() < 0.002);
    }

    #[test]
    fn credential_harvesting_is_1267() {
        let s = CorpusSpec::paper();
        assert_eq!(s.credential_harvesting(), 1267);
        // Turnstile rate 74.4%
        assert!(
            (s.turnstile_messages as f64 / s.credential_harvesting() as f64 - 0.744).abs() < 0.001
        );
        assert!(
            (s.recaptcha_messages as f64 / s.credential_harvesting() as f64 - 0.248).abs() < 0.001
        );
    }

    #[test]
    fn spear_share_is_73_percent() {
        let s = CorpusSpec::paper();
        assert!((s.spear as f64 / s.active_phish as f64 - 0.733).abs() < 0.001);
    }

    #[test]
    fn hotlink_share_is_29_8_percent_of_spear() {
        let s = CorpusSpec::paper();
        assert!((s.hotlink_messages as f64 / s.spear as f64 - 0.298).abs() < 0.001);
    }

    #[test]
    fn scaling_floors_at_one() {
        let s = CorpusSpec::paper().with_scale(0.01);
        assert_eq!(s.scaled(5), 1);
        assert_eq!(s.scaled(0), 0);
        assert_eq!(s.scaled(1000), 10);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        CorpusSpec::paper().with_scale(0.0);
    }

    #[test]
    fn fault_knobs_default_off() {
        let s = CorpusSpec::paper();
        assert_eq!(s.transient_fault_rate, 0.0);
        assert_eq!(s.fault_max_consecutive, 2);
        assert_eq!(s.with_fault_rate(0.2).transient_fault_rate, 0.2);
    }

    #[test]
    #[should_panic(expected = "fault rate")]
    fn out_of_range_fault_rate_rejected() {
        CorpusSpec::paper().with_fault_rate(1.5);
    }
}
