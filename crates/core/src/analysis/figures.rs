//! Figure 2 (messages per month) and Figure 3 (timedelta distributions),
//! plus the footnote-1 paired t-test.

use crate::logging::ScanRecord;
use cb_json::{Deserialize, Serialize};
use cb_phishgen::MessageClass;
use cb_stats::{paired_t_test, Describe, Histogram, TTestResult};
use std::collections::BTreeMap;
use std::fmt;

/// Figure 2: scanned messages per month.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure2 {
    /// `(year, month, count)` in chronological order.
    pub series: Vec<(i64, u32, usize)>,
    /// Mean messages per month.
    pub mean: f64,
    /// Population standard deviation (as the paper reports).
    pub stddev: f64,
}

/// Compute Figure 2 from scan records.
pub fn figure2(records: &[ScanRecord]) -> Figure2 {
    let mut counts: BTreeMap<(i64, u32), usize> = BTreeMap::new();
    for r in records {
        *counts.entry(r.delivered_at.year_month()).or_insert(0) += 1;
    }
    let series: Vec<(i64, u32, usize)> = counts.into_iter().map(|((y, m), n)| (y, m, n)).collect();
    let values: Vec<f64> = series.iter().map(|&(_, _, n)| n as f64).collect();
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len().max(1) as f64;
    Figure2 {
        series,
        mean,
        stddev: var.sqrt(),
    }
}

impl fmt::Display for Figure2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self
            .series
            .iter()
            .map(|&(_, _, n)| n)
            .max()
            .unwrap_or(1)
            .max(1);
        for &(y, m, n) in &self.series {
            let bar = "#".repeat(n * 40 / peak);
            writeln!(f, "{y}-{m:02} {n:>6} {bar}")?;
        }
        writeln!(f, "mean {:.1}  sd {:.1}", self.mean, self.stddev)
    }
}

/// Figure 3: the two timedelta distributions over landing domains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure3 {
    /// Per-domain `timedeltaA` (registration → mean delivery), hours.
    pub tdelta_a_hours: Vec<f64>,
    /// Per-domain `timedeltaB` (certificate → mean delivery), hours.
    pub tdelta_b_hours: Vec<f64>,
    /// 10-day-bin histogram of `timedeltaA` under 90 days.
    pub hist_a: Histogram,
    /// 10-day-bin histogram of `timedeltaB` under 90 days.
    pub hist_b: Histogram,
    /// Summary statistics of `timedeltaA` (days).
    pub describe_a: Describe,
    /// Summary statistics of `timedeltaB` (days).
    pub describe_b: Describe,
    /// Domains with `timedeltaA` > 90 days.
    pub a_over_90d: usize,
    /// Domains with `timedeltaB` > 90 days.
    pub b_over_90d: usize,
}

/// Compute Figure 3: per landing domain, the difference between WHOIS
/// registration (resp. first certificate) and the domain's *average*
/// message delivery time, exactly as §V-A defines.
pub fn figure3(records: &[ScanRecord]) -> Figure3 {
    // domain -> (sum of delivery instants, count, registered_at, cert_at)
    struct Acc {
        delivery_sum: i64,
        count: i64,
        registered_at: Option<cb_sim::SimTime>,
        cert_at: Option<cb_sim::SimTime>,
    }
    let mut per_domain: BTreeMap<String, Acc> = BTreeMap::new();
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
            let acc = per_domain.entry(domain).or_insert(Acc {
                delivery_sum: 0,
                count: 0,
                registered_at: v.domain_registered_at,
                cert_at: v.cert_issued_at,
            });
            acc.delivery_sum += r.delivered_at.as_unix();
            acc.count += 1;
        }
    }

    let mut a_hours = Vec::new();
    let mut b_hours = Vec::new();
    for acc in per_domain.values() {
        let mean_delivery = acc.delivery_sum / acc.count.max(1);
        if let Some(reg) = acc.registered_at {
            a_hours.push((mean_delivery - reg.as_unix()) as f64 / 3600.0);
        }
        if let Some(cert) = acc.cert_at {
            b_hours.push((mean_delivery - cert.as_unix()) as f64 / 3600.0);
        }
    }

    let mut hist_a = Histogram::new(0.0, 90.0, 9);
    hist_a.record_all(a_hours.iter().map(|h| h / 24.0));
    let mut hist_b = Histogram::new(0.0, 90.0, 9);
    hist_b.record_all(b_hours.iter().map(|h| h / 24.0));
    let a_days: Vec<f64> = a_hours.iter().map(|h| h / 24.0).collect();
    let b_days: Vec<f64> = b_hours.iter().map(|h| h / 24.0).collect();
    Figure3 {
        a_over_90d: a_days.iter().filter(|&&d| d > 90.0).count(),
        b_over_90d: b_days.iter().filter(|&&d| d > 90.0).count(),
        describe_a: Describe::of(&a_days),
        describe_b: Describe::of(&b_days),
        hist_a,
        hist_b,
        tdelta_a_hours: a_hours,
        tdelta_b_hours: b_hours,
    }
}

impl fmt::Display for Figure3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "timedeltaA: median {:.0} h ({:.1} d), kurtosis {:.1}, {} domains > 90 d",
            self.describe_a.median * 24.0,
            self.describe_a.median,
            self.describe_a.kurtosis_excess,
            self.a_over_90d
        )?;
        writeln!(f, "{}", self.hist_a.render_ascii(36))?;
        writeln!(
            f,
            "timedeltaB: median {:.0} h ({:.1} d), kurtosis {:.1}, {} domains > 90 d",
            self.describe_b.median * 24.0,
            self.describe_b.median,
            self.describe_b.kurtosis_excess,
            self.b_over_90d
        )?;
        writeln!(f, "{}", self.hist_b.render_ascii(36))
    }
}

/// Footnote 1: paired t-test of the 2023 vs 2024 monthly volumes. The
/// series are paired in the spreadsheet layout that reproduces the
/// published p = 0.008: 2023 in reverse chronological order against 2024
/// forward (Dec↔Jan, Nov↔Feb, …).
pub fn volume_t_test(monthly_2023: &[usize; 10], figure2: &Figure2) -> Option<TTestResult> {
    if figure2.series.len() != 10 {
        return None;
    }
    let y2023: Vec<f64> = monthly_2023.iter().rev().map(|&n| n as f64).collect();
    let y2024: Vec<f64> = figure2.series.iter().map(|&(_, _, n)| n as f64).collect();
    paired_t_test(&y2023, &y2024).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CrawlerBox;
    use cb_phishgen::{Corpus, CorpusSpec};

    fn records(scale: f64) -> (Vec<ScanRecord>, CorpusSpec) {
        let spec = CorpusSpec::paper().with_scale(scale);
        let corpus = Corpus::generate(&spec, 17);
        let cbx = CrawlerBox::new(&corpus.world);
        (cbx.scan_all(&corpus.messages), spec)
    }

    #[test]
    fn figure2_matches_the_schedule() {
        let (recs, spec) = records(0.05);
        let f2 = figure2(&recs);
        assert_eq!(f2.series.len(), 10);
        let total: usize = f2.series.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, recs.len());
        // downward trend
        let counts: Vec<usize> = f2.series.iter().map(|&(_, _, n)| n).collect();
        assert!(counts[0] > counts[9]);
        let _ = spec;
    }

    #[test]
    fn figure3_shapes_hold() {
        let (recs, _) = records(0.25);
        let f3 = figure3(&recs);
        assert!(!f3.tdelta_a_hours.is_empty());
        // medians in the right neighbourhoods (575 h / 185 h)
        let med_a = f3.describe_a.median * 24.0;
        let med_b = f3.describe_b.median * 24.0;
        // generous bounds: at this scale (~130 domains) the median's
        // sampling error is several days; the full-scale repro harness
        // checks the tight targets (575 h / 185 h)
        assert!((250.0..=1100.0).contains(&med_a), "median A {med_a} h");
        assert!((60.0..=420.0).contains(&med_b), "median B {med_b} h");
        assert!(med_a > med_b, "registration precedes certificate");
        // fat right tail on A
        assert!(f3.describe_a.skewness > 1.0);
        assert!(f3.a_over_90d > f3.b_over_90d);
    }

    #[test]
    fn t_test_reproduces_significance() {
        let (recs, spec) = records(1.0 / 10.0);
        // For the t-test, scale the observed series back up: at small scale
        // the shape is identical, so test on the spec series directly.
        let f2 = figure2(&recs);
        let t = volume_t_test(&spec.monthly_2023, &f2);
        // counts are scaled 10x down, so compare against a scaled 2023
        let scaled_2023: [usize; 10] = {
            let mut a = [0usize; 10];
            for (i, v) in spec.monthly_2023.iter().enumerate() {
                a[i] = (*v as f64 * spec.scale).round() as usize;
            }
            a
        };
        let t_scaled = volume_t_test(&scaled_2023, &f2).expect("10 months present");
        assert!(t_scaled.rejects_null_at(0.05), "{t_scaled}");
        let _ = t;
    }

    #[test]
    fn full_spec_t_test_is_p_008() {
        // Against the published series themselves (no sampling noise) the
        // t-test lands on the paper's p ≈ 0.008.
        let spec = CorpusSpec::paper();
        let y2023: Vec<f64> = spec.monthly_2023.iter().rev().map(|&n| n as f64).collect();
        let y2024: Vec<f64> = spec.monthly_2024.iter().map(|&n| n as f64).collect();
        let t = cb_stats::paired_t_test(&y2023, &y2024).unwrap();
        assert!(
            (0.003..=0.02).contains(&t.p_two_sided),
            "p = {}",
            t.p_two_sided
        );
    }

    #[test]
    fn displays_render() {
        let (recs, _) = records(0.04);
        assert!(figure2(&recs).to_string().contains("2024-01"));
        assert!(figure3(&recs).to_string().contains("timedeltaA"));
    }
}
