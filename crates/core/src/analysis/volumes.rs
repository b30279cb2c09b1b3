//! §V-A per-domain message volumes and passive-DNS query volumes — the
//! "low-volume targeted attacks" evidence.

use crate::logging::ScanRecord;
use cb_json::{Deserialize, Serialize};
use cb_phishgen::MessageClass;
use cb_stats::describe::median;
use std::collections::BTreeMap;

/// Message-volume statistics per landing domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainVolumeStats {
    /// Distinct landing domains.
    pub domains: usize,
    /// Mean reported messages per domain.
    pub mean_messages: f64,
    /// Median reported messages per domain.
    pub median_messages: f64,
    /// Maximum reported messages on one domain.
    pub max_messages: usize,
    /// Median of per-domain max-queries-per-day, single-message domains.
    pub single_median_max_per_day: f64,
    /// Median total queries (30 d), single-message domains.
    pub single_median_total: f64,
    /// Median of per-domain max-queries-per-day, multi-message domains.
    pub multi_median_max_per_day: f64,
    /// Median total queries (30 d), multi-message domains.
    pub multi_median_total: f64,
    /// `(domain, total_queries, message_count)` of the three
    /// highest-volume domains.
    pub top_by_queries: Vec<(String, u64, usize)>,
}

/// Compute volume statistics from scan records.
pub fn domain_volumes(records: &[ScanRecord]) -> DomainVolumeStats {
    // domain -> (message count, dns volume)
    let mut per_domain: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
    for r in records {
        if r.class != MessageClass::ActivePhish {
            continue;
        }
        for v in &r.visits {
            if !v.login_form {
                continue;
            }
            let Some(domain) = v.landing_domain() else {
                continue;
            };
            let entry = per_domain.entry(domain).or_insert((0, 0, 0));
            entry.0 += 1;
            if let Some(q) = v.dns_volume {
                entry.1 = entry.1.max(q.max_per_day);
                entry.2 = entry.2.max(q.total);
            }
            break; // one landing domain per message
        }
    }

    let counts: Vec<f64> = per_domain.values().map(|&(n, _, _)| n as f64).collect();
    let singles: Vec<&(usize, u64, u64)> =
        per_domain.values().filter(|(n, _, _)| *n == 1).collect();
    let multis: Vec<&(usize, u64, u64)> = per_domain.values().filter(|(n, _, _)| *n > 1).collect();
    let med = |vals: Vec<f64>| if vals.is_empty() { 0.0 } else { median(&vals) };

    let mut by_queries: Vec<(String, u64, usize)> = per_domain
        .iter()
        .map(|(d, &(n, _, total))| (d.clone(), total, n))
        .collect();
    by_queries.sort_by_key(|(_, total, _)| std::cmp::Reverse(*total));
    by_queries.truncate(3);

    DomainVolumeStats {
        domains: per_domain.len(),
        mean_messages: if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<f64>() / counts.len() as f64
        },
        median_messages: med(counts),
        max_messages: per_domain.values().map(|&(n, _, _)| n).max().unwrap_or(0),
        single_median_max_per_day: med(singles.iter().map(|(_, m, _)| *m as f64).collect()),
        single_median_total: med(singles.iter().map(|(_, _, t)| *t as f64).collect()),
        multi_median_max_per_day: med(multis.iter().map(|(_, m, _)| *m as f64).collect()),
        multi_median_total: med(multis.iter().map(|(_, _, t)| *t as f64).collect()),
        top_by_queries: by_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CrawlerBox;
    use cb_phishgen::{Corpus, CorpusSpec};
    use std::sync::OnceLock;

    /// Volume stats of the scale-0.3 scan, computed once and shared by
    /// both tests.
    fn stats_03() -> &'static DomainVolumeStats {
        static STATS: OnceLock<DomainVolumeStats> = OnceLock::new();
        STATS.get_or_init(|| {
            let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(0.3), 61);
            let records = CrawlerBox::new(&corpus.world).scan_all(&corpus.messages);
            domain_volumes(&records)
        })
    }

    #[test]
    fn volume_shape_matches_paper() {
        let s = stats_03();
        assert!(s.domains > 50);
        // median 1 message per domain, skewed mean
        assert_eq!(s.median_messages, 1.0);
        assert!(s.mean_messages > 1.5, "mean {}", s.mean_messages);
        assert!(s.max_messages >= 10, "max {}", s.max_messages);
        // single-message domains show lower DNS volume than multi-message
        assert!(
            s.single_median_total < s.multi_median_total,
            "single {} vs multi {}",
            s.single_median_total,
            s.multi_median_total
        );
        assert!(s.single_median_max_per_day < s.multi_median_max_per_day);
    }

    #[test]
    fn top_queried_domain_is_the_most_reported() {
        let s = stats_03();
        assert_eq!(s.top_by_queries.len(), 3);
        let (_, top_queries, top_msgs) = &s.top_by_queries[0];
        // the headline domain: by far the highest query volume and the most
        // messages (§V-A)
        assert!(*top_queries > 1_000_000, "top volume {top_queries}");
        assert_eq!(*top_msgs, s.max_messages);
        assert!(s.top_by_queries[0].1 > s.top_by_queries[1].1);
    }
}
