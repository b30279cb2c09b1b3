//! Table II (TLD distribution) and the §V class-mix / spear statistics,
//! derived from scan records.

use crate::logging::ScanRecord;
use cb_json::{Deserialize, Serialize};
use cb_netsim::DomainName;
use cb_phishgen::MessageClass;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The §V class mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassMix {
    /// Total scanned.
    pub total: usize,
    /// No embedded web resources.
    pub no_resource: usize,
    /// Error pages / dead infrastructure.
    pub error_pages: usize,
    /// Interaction required.
    pub interaction_required: usize,
    /// File downloads.
    pub downloads: usize,
    /// Active phishing.
    pub active_phish: usize,
}

impl ClassMix {
    /// Compute from records.
    pub fn of(records: &[ScanRecord]) -> ClassMix {
        let count = |c: MessageClass| records.iter().filter(|r| r.class == c).count();
        ClassMix {
            total: records.len(),
            no_resource: count(MessageClass::NoResource),
            error_pages: count(MessageClass::ErrorPage),
            interaction_required: count(MessageClass::InteractionRequired),
            downloads: count(MessageClass::Download),
            active_phish: count(MessageClass::ActivePhish),
        }
    }

    /// Share of a class, in percent.
    pub fn percent(&self, n: usize) -> f64 {
        n as f64 * 100.0 / self.total.max(1) as f64
    }
}

impl fmt::Display for ClassMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total scanned:        {:>6}", self.total)?;
        writeln!(
            f,
            "no web resources:     {:>6} ({:.1}%)",
            self.no_resource,
            self.percent(self.no_resource)
        )?;
        writeln!(
            f,
            "error pages:          {:>6} ({:.1}%)",
            self.error_pages,
            self.percent(self.error_pages)
        )?;
        writeln!(
            f,
            "interaction required: {:>6} ({:.1}%)",
            self.interaction_required,
            self.percent(self.interaction_required)
        )?;
        writeln!(
            f,
            "downloads:            {:>6} ({:.1}%)",
            self.downloads,
            self.percent(self.downloads)
        )?;
        writeln!(
            f,
            "active phishing:      {:>6} ({:.1}%)",
            self.active_phish,
            self.percent(self.active_phish)
        )
    }
}

/// The distinct landing domains of active-phish records.
pub fn landing_domains(records: &[ScanRecord]) -> BTreeSet<String> {
    records
        .iter()
        .filter(|r| r.class == MessageClass::ActivePhish)
        .flat_map(|r| r.visits.iter())
        .filter(|v| v.login_form)
        .filter_map(|v| v.landing_domain())
        .collect()
}

/// The distinct landing URLs of active-phish records.
pub fn landing_urls(records: &[ScanRecord]) -> BTreeSet<String> {
    records
        .iter()
        .filter(|r| r.class == MessageClass::ActivePhish)
        .flat_map(|r| r.visits.iter())
        .filter(|v| v.login_form)
        .map(|v| v.final_url().to_string())
        .collect()
}

/// Table II: domains per TLD, rank-ordered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2 {
    /// `(tld, count)` in descending count order.
    pub rows: Vec<(String, usize)>,
    /// Total distinct landing domains.
    pub total_domains: usize,
}

/// Compute Table II from scan records.
pub fn table2(records: &[ScanRecord]) -> Table2 {
    let domains = landing_domains(records);
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for d in &domains {
        *counts.entry(DomainName::new(d).tld()).or_insert(0) += 1;
    }
    let mut rows: Vec<(String, usize)> = counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Table2 {
        total_domains: domains.len(),
        rows,
    }
}

impl Table2 {
    /// The paper's presentation: the top `k` TLDs plus an aggregated
    /// "Other" row.
    pub fn top_with_other(&self, k: usize) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = self.rows.iter().take(k).cloned().collect();
        let other: usize = self.rows.iter().skip(k).map(|(_, n)| n).sum();
        if other > 0 {
            out.push(("Other".to_string(), other));
        }
        out
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<8} {:>8} {:>8}", "TLD", "Domains", "Share")?;
        for (tld, n) in self.top_with_other(9) {
            writeln!(
                f,
                "{:<8} {:>8} {:>7.1}%",
                tld,
                n,
                n as f64 * 100.0 / self.total_domains.max(1) as f64
            )?;
        }
        writeln!(f, "total    {:>8}", self.total_domains)
    }
}

/// Spear statistics (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpearStats {
    /// Active-phish messages.
    pub active: usize,
    /// Classified as spear (company lookalikes).
    pub spear: usize,
    /// Spear messages whose pages hotlink resources from the impersonated
    /// organization's own domains.
    pub hotlinking: usize,
}

/// Compute spear statistics. A visit hotlinks when a subresource host is a
/// company domain while the page itself is not hosted there.
pub fn spear_stats(records: &[ScanRecord]) -> SpearStats {
    let company_hosts: Vec<&str> = cb_phishkit::Brand::companies()
        .iter()
        .map(|b| b.legit_domain())
        .collect::<Vec<_>>();
    let mut active = 0;
    let mut spear = 0;
    let mut hotlinking = 0;
    for r in records {
        if r.class != MessageClass::ActivePhish {
            continue;
        }
        active += 1;
        if r.spear_match().is_none() {
            continue;
        }
        spear += 1;
        let hotlinks = r.visits.iter().any(|v| {
            let own = v.landing_domain().unwrap_or_default();
            v.subresources.iter().any(|(u, status)| {
                *status == 200
                    && cb_netsim::Url::parse(u)
                        .map(|p| company_hosts.contains(&p.host.as_str()) && p.host != own)
                        .unwrap_or(false)
            })
        });
        if hotlinks {
            hotlinking += 1;
        }
    }
    SpearStats {
        active,
        spear,
        hotlinking,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CrawlerBox;
    use cb_phishgen::{Corpus, CorpusSpec};

    fn records() -> Vec<ScanRecord> {
        let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(0.03), 31);
        let cbx = CrawlerBox::new(&corpus.world);
        cbx.scan_all(&corpus.messages)
    }

    #[test]
    fn class_mix_shares_track_the_paper() {
        let recs = records();
        let mix = ClassMix::of(&recs);
        assert_eq!(
            mix.total,
            mix.no_resource
                + mix.error_pages
                + mix.interaction_required
                + mix.downloads
                + mix.active_phish
        );
        assert!((mix.percent(mix.no_resource) - 49.6).abs() < 6.0);
        assert!((mix.percent(mix.active_phish) - 29.9).abs() < 6.0);
    }

    #[test]
    fn table2_counts_sum_to_domains() {
        let recs = records();
        let t2 = table2(&recs);
        let sum: usize = t2.rows.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, t2.total_domains);
        assert!(t2.total_domains > 5);
        // .com leads
        assert_eq!(t2.rows[0].0, ".com");
    }

    #[test]
    fn spear_share_is_roughly_73_percent() {
        let recs = records();
        let s = spear_stats(&recs);
        assert!(s.active > 0);
        let share = s.spear as f64 / s.active as f64;
        assert!((0.55..=0.92).contains(&share), "spear share {share}");
        assert!(s.hotlinking <= s.spear);
        assert!(s.hotlinking > 0, "some lookalikes hotlink brand assets");
    }

    #[test]
    fn display_renders() {
        let recs = records();
        assert!(ClassMix::of(&recs).to_string().contains("active phishing"));
        assert!(table2(&recs).to_string().contains(".com"));
    }
}
