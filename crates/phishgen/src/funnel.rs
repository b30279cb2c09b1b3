//! The §IV-A triage funnel: from 60 M inbound messages per month down to
//! the ~500 confirmed-malicious reports the experts tag.

use cb_json::{Deserialize, Serialize};

/// The corporate email funnel, per month, at the published rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FunnelReport {
    /// Inbound messages across the five companies.
    pub inbound: u64,
    /// Filtered by the commercial security layers (17%).
    pub filtered: u64,
    /// Delivered to inboxes.
    pub delivered: u64,
    /// User-reported as suspicious (0.03% of delivered ⇒ ~14,000).
    pub reported: u64,
    /// Expert verdict: malicious (3.7% of reports).
    pub confirmed_malicious: u64,
    /// Expert verdict: spam (61.3%).
    pub confirmed_spam: u64,
    /// Expert verdict: legitimate (35.0%).
    pub confirmed_legitimate: u64,
}

impl FunnelReport {
    /// The published monthly funnel.
    pub fn paper_monthly() -> FunnelReport {
        FunnelReport::from_inbound(60_000_000)
    }

    /// Apply the published rates to an inbound volume.
    pub fn from_inbound(inbound: u64) -> FunnelReport {
        let filtered = (inbound as f64 * 0.17) as u64;
        let delivered = inbound - filtered;
        let reported = (delivered as f64 * 0.000_3).round() as u64;
        let confirmed_malicious = (reported as f64 * 0.037).round() as u64;
        let confirmed_spam = (reported as f64 * 0.613).round() as u64;
        let confirmed_legitimate = reported - confirmed_malicious - confirmed_spam;
        FunnelReport {
            inbound,
            filtered,
            delivered,
            reported,
            confirmed_malicious,
            confirmed_spam,
            confirmed_legitimate,
        }
    }

    /// Confirmed-malicious per working day (the paper: "25 per working day
    /// on average", ~20 working days per month).
    pub fn malicious_per_working_day(&self) -> f64 {
        self.confirmed_malicious as f64 / 20.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monthly_funnel_matches_paper() {
        let f = FunnelReport::paper_monthly();
        assert_eq!(f.inbound, 60_000_000);
        assert_eq!(f.filtered, 10_200_000);
        assert_eq!(f.delivered, 49_800_000);
        // "about 14,000 are monthly reported" — 0.03% of delivered
        assert!((13_000..16_000).contains(&f.reported), "{}", f.reported);
        // "500 are reported and confirmed as malicious every month"
        assert!(
            (450..620).contains(&f.confirmed_malicious),
            "{}",
            f.confirmed_malicious
        );
        // "25 per working day on average"
        assert!((22.0..31.0).contains(&f.malicious_per_working_day()));
    }

    #[test]
    fn verdict_shares_sum_to_reports() {
        let f = FunnelReport::paper_monthly();
        assert_eq!(
            f.confirmed_malicious + f.confirmed_spam + f.confirmed_legitimate,
            f.reported
        );
        let legit_share = f.confirmed_legitimate as f64 / f.reported as f64;
        assert!((legit_share - 0.35).abs() < 0.01, "{legit_share}");
    }

    #[test]
    fn funnel_scales_linearly() {
        let half = FunnelReport::from_inbound(30_000_000);
        let full = FunnelReport::paper_monthly();
        assert!((half.reported as f64 * 2.0 - full.reported as f64).abs() <= 2.0);
    }
}
