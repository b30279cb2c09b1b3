//! Table I: the crawler × bot-detection matrix.
//!
//! Each of the eight crawler profiles is challenged against BotD, Cloudflare
//! Turnstile and AnonWAF — reproducing the assessment of §IV-D, where only
//! NotABot, Nodriver and Selenium-Driverless pass all three.

use cb_botdetect::{AnonWaf, BotD, Detector, Turnstile};
use cb_browser::CrawlerProfile;
use cb_json::{Deserialize, Serialize};
use std::fmt;

/// One row of the matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Crawler name as printed in the paper.
    pub crawler: String,
    /// Passed BotD.
    pub botd: bool,
    /// Passed Cloudflare Turnstile.
    pub turnstile: bool,
    /// Passed AnonWAF.
    pub anonwaf: bool,
}

impl Table1Row {
    /// Passed every detector.
    pub fn passes_all(&self) -> bool {
        self.botd && self.turnstile && self.anonwaf
    }
}

/// The full matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1 {
    /// One row per crawler, Table I column order.
    pub rows: Vec<Table1Row>,
}

/// Evaluate the matrix.
pub fn table1() -> Table1 {
    let rows = CrawlerProfile::table1()
        .into_iter()
        .map(evaluate_profile)
        .collect();
    Table1 { rows }
}

/// Evaluate one profile against the three services.
pub fn evaluate_profile(profile: CrawlerProfile) -> Table1Row {
    let report = profile.fingerprint().attestation();
    Table1Row {
        crawler: profile.name().to_string(),
        botd: BotD.evaluate(&report).is_human(),
        turnstile: Turnstile::default().evaluate(&report).is_human(),
        anonwaf: AnonWaf::default().evaluate(&report).is_human(),
    }
}

/// The A1 ablation: NotABot single-feature knock-outs.
pub fn ablation() -> Table1 {
    let mut rows = vec![evaluate_profile(CrawlerProfile::NotABot)];
    rows.extend(
        CrawlerProfile::ablations()
            .into_iter()
            .map(evaluate_profile),
    );
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<36} {:>6} {:>10} {:>8}",
            "Crawler", "BotD", "Turnstile", "AnonWAF"
        )?;
        for row in &self.rows {
            let mark = |b: bool| if b { "pass" } else { "fail" };
            writeln!(
                f,
                "{:<36} {:>6} {:>10} {:>8}",
                row.crawler,
                mark(row.botd),
                mark(row.turnstile),
                mark(row.anonwaf)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_published_table() {
        let t = table1();
        let expect = [
            ("Kangooroo", false, false, false),
            ("Lacus", true, false, false),
            ("Puppeteer + stealth plugin", true, false, false),
            ("Selenium + stealth plugin", false, false, false),
            ("undetected_chromedriver", true, false, true),
            ("Nodriver", true, true, true),
            ("Selenium-Driverless", true, true, true),
            ("NotABot", true, true, true),
        ];
        assert_eq!(t.rows.len(), 8);
        for (row, (name, botd, turnstile, anonwaf)) in t.rows.iter().zip(expect) {
            assert_eq!(row.crawler, name);
            assert_eq!(row.botd, botd, "{name} BotD");
            assert_eq!(row.turnstile, turnstile, "{name} Turnstile");
            assert_eq!(row.anonwaf, anonwaf, "{name} AnonWAF");
        }
        // exactly three crawlers pass everything
        assert_eq!(t.rows.iter().filter(|r| r.passes_all()).count(), 3);
    }

    #[test]
    fn ablation_knockouts_all_fail_something() {
        let t = ablation();
        assert!(t.rows[0].passes_all(), "baseline NotABot");
        // every knock-out except the datacenter-IP one is hard-caught
        let caught = t.rows[1..].iter().filter(|r| !r.passes_all()).count();
        assert!(caught >= 4, "{caught} of 5 ablations caught");
    }

    #[test]
    fn display_renders_all_rows() {
        let s = table1().to_string();
        assert_eq!(s.lines().count(), 9);
        assert!(s.contains("NotABot"));
    }
}
