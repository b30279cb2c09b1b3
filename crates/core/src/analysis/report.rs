//! The assembled analysis report: every experiment of DESIGN.md §3 in one
//! structure, renderable as the EXPERIMENTS.md comparison.

use crate::analysis::cloaking::{self, CloakingPrevalence};
use crate::analysis::figures::{self, Figure2, Figure3};
use crate::analysis::lexical::{self, LexicalStats};
use crate::analysis::nontargeted::{self, NonTargetedStats};
use crate::analysis::table1::{self, Table1};
use crate::analysis::tables::{self, ClassMix, SpearStats, Table2};
use crate::analysis::volumes::{self, DomainVolumeStats};
use crate::logging::ScanRecord;
use cb_json::{Deserialize, Serialize};
use cb_netsim::Internet;
use cb_phishgen::{CorpusSpec, FunnelReport};
use cb_stats::TTestResult;

/// Everything the analysis derives.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Table I: crawler × detector matrix.
    pub table1: Table1,
    /// A1 ablation matrix.
    pub ablation: Table1,
    /// Table II: TLD distribution.
    pub table2: Table2,
    /// Figure 2: monthly volumes.
    pub figure2: Figure2,
    /// Figure 3: timedelta distributions.
    pub figure3: Figure3,
    /// §V class mix.
    pub class_mix: ClassMix,
    /// §V-A spear statistics.
    pub spear: SpearStats,
    /// §V-A volume statistics.
    pub volumes: DomainVolumeStats,
    /// §V-A lexical statistics over landing domains.
    pub lexical: LexicalStats,
    /// §V-B non-targeted breakdown.
    pub nontargeted: NonTargetedStats,
    /// §V-C prevalence counts.
    pub cloaking: CloakingPrevalence,
    /// Challenge-gated credential messages `(gated, total)` measured by the
    /// weak-crawler differential.
    pub challenge_gating: (usize, usize),
    /// Footnote-1 t-test (2023 vs 2024 volumes).
    pub t_test: Option<TTestResult>,
    /// §IV-A funnel (computed at published rates).
    pub funnel: FunnelReport,
    /// Distinct landing URLs observed.
    pub landing_urls: usize,
}

/// Run the complete analysis over scan records.
pub fn analyze(world: &Internet, spec: &CorpusSpec, records: &[ScanRecord]) -> AnalysisReport {
    let figure2 = figures::figure2(records);
    let scaled_2023: [usize; 10] = {
        let mut a = [0usize; 10];
        for (i, v) in spec.monthly_2023.iter().enumerate() {
            a[i] = (*v as f64 * spec.scale).round() as usize;
        }
        a
    };
    let t_test = figures::volume_t_test(&scaled_2023, &figure2);
    let domains = tables::landing_domains(records);
    AnalysisReport {
        table1: table1::table1(),
        ablation: table1::ablation(),
        table2: tables::table2(records),
        figure3: figures::figure3(records),
        class_mix: ClassMix::of(records),
        spear: tables::spear_stats(records),
        volumes: volumes::domain_volumes(records),
        lexical: lexical::analyze_domains(domains.iter().map(String::as_str)),
        nontargeted: nontargeted::nontargeted_stats(records),
        cloaking: cloaking::prevalence(records),
        challenge_gating: cloaking::measure_challenge_gating(world, records),
        t_test,
        funnel: FunnelReport::paper_monthly(),
        landing_urls: tables::landing_urls(records).len(),
        figure2,
    }
}

impl AnalysisReport {
    /// Render a human-readable summary (the repro binary prints this).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Table I: crawler vs bot-detection ==\n");
        out.push_str(&self.table1.to_string());
        out.push_str("\n== A1 ablation: NotABot knock-outs ==\n");
        out.push_str(&self.ablation.to_string());
        out.push_str("\n== Table II: landing-domain TLDs ==\n");
        out.push_str(&self.table2.to_string());
        out.push_str("\n== Figure 2: messages per month ==\n");
        out.push_str(&self.figure2.to_string());
        out.push_str("\n== Figure 3: deployment timeline ==\n");
        out.push_str(&self.figure3.to_string());
        out.push_str("\n== Class mix ==\n");
        out.push_str(&self.class_mix.to_string());
        out.push_str("\n== Spear phishing ==\n");
        out.push_str(&format!(
            "active {} / spear {} ({:.1}%) / hotlinking {} ({:.1}% of spear)\n",
            self.spear.active,
            self.spear.spear,
            self.spear.spear as f64 * 100.0 / self.spear.active.max(1) as f64,
            self.spear.hotlinking,
            self.spear.hotlinking as f64 * 100.0 / self.spear.spear.max(1) as f64,
        ));
        out.push_str(&format!(
            "landing URLs {} / landing domains {}\n",
            self.landing_urls, self.table2.total_domains
        ));
        out.push_str("\n== Domain volumes ==\n");
        out.push_str(&format!(
            "messages/domain: mean {:.2} median {:.1} max {}\n",
            self.volumes.mean_messages, self.volumes.median_messages, self.volumes.max_messages
        ));
        out.push_str(&format!(
            "dns 30d: singles max/day {:.1} total {:.1}; multi max/day {:.1} total {:.1}\n",
            self.volumes.single_median_max_per_day,
            self.volumes.single_median_total,
            self.volumes.multi_median_max_per_day,
            self.volumes.multi_median_total
        ));
        out.push_str("\n== Lexical ==\n");
        out.push_str(&format!(
            "deceptive {} / {} ({:.1}%), punycode {}\n",
            self.lexical.deceptive,
            self.lexical.total,
            self.lexical.deceptive as f64 * 100.0 / self.lexical.total.max(1) as f64,
            self.lexical.punycode
        ));
        out.push_str("\n== Non-targeted (V-B) ==\n");
        out.push_str(&format!(
            "messages {} / html attachments {} / landing domains {} (deceptive {})\n",
            self.nontargeted.messages,
            self.nontargeted.html_attachment_messages,
            self.nontargeted.landing_domains,
            self.nontargeted.deceptive_domains
        ));
        for (service, n) in &self.nontargeted.by_service {
            out.push_str(&format!("  {service}: {n}\n"));
        }
        out.push_str("\n== Cloaking prevalence ==\n");
        out.push_str(&self.cloaking.to_string());
        out.push_str(&format!(
            "challenge-gated: {} / {} credential messages ({:.1}%)\n",
            self.challenge_gating.0,
            self.challenge_gating.1,
            self.challenge_gating.0 as f64 * 100.0 / self.challenge_gating.1.max(1) as f64
        ));
        if let Some(t) = &self.t_test {
            out.push_str(&format!("\n== t-test 2023 vs 2024 ==\n{t}\n"));
        }
        out.push_str(&format!(
            "\n== Funnel (monthly) ==\ninbound {} / filtered {} / reported {} / malicious {}\n",
            self.funnel.inbound,
            self.funnel.filtered,
            self.funnel.reported,
            self.funnel.confirmed_malicious
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CrawlerBox;
    use cb_phishgen::{Corpus, CorpusSpec};

    #[test]
    fn full_report_assembles_and_renders() {
        let spec = CorpusSpec::paper().with_scale(0.05);
        let corpus = Corpus::generate(&spec, 77);
        let records = CrawlerBox::new(&corpus.world).scan_all(&corpus.messages);
        let report = analyze(&corpus.world, &spec, &records);
        let rendered = report.render();
        for needle in [
            "Table I",
            "NotABot",
            "Table II",
            "Figure 2",
            "Figure 3",
            "Class mix",
            "Spear",
            "Cloaking",
            "Funnel",
        ] {
            assert!(rendered.contains(needle), "missing section {needle}");
        }
        // serializes for the JSON log path
        let json = cb_json::to_string(&report).unwrap();
        assert!(json.contains("table1"));
    }
}
