//! The `repro faults` experiment: transient-fault sweeps proving the crawl
//! supervisor's recovery guarantee.
//!
//! Three arms are generated from the same seed: a fault-free **baseline**,
//! a **supervised** arm scanning the same corpus under injected transient
//! faults with the default retry policy, and a **retry-less** arm with
//! supervision disabled. The claim under test: supervision makes the §V
//! class mix and the Table I verdict matrix *invariant* under faults
//! (per-message class agreement 1.0), while the retry-less pipeline
//! demonstrably degrades.

use crate::analysis::table1::{self, Table1};
use crate::analysis::tables::ClassMix;
use crate::logging::ScanRecord;
use crate::pipeline::{CrawlerBox, ScanPolicy};
use cb_json::{Deserialize, Serialize};
use cb_phishgen::{Corpus, CorpusSpec};
use std::fmt;

/// One arm of the sweep, summarised.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultArm {
    /// Arm name (`baseline`, `supervised`, `retryless`).
    pub label: String,
    /// The arm's §V class mix.
    pub class_mix: ClassMix,
    /// Fraction of messages whose derived class matches the baseline's
    /// (order-aligned; 1.0 for the baseline itself).
    pub class_agreement: f64,
    /// Visits that observed at least one transient fault.
    pub visits_with_faults: usize,
    /// Total visit attempts across all messages (> visit count means the
    /// supervisor retried).
    pub total_attempts: usize,
    /// Visits that still carried an error after supervision.
    pub failed_visits: usize,
}

/// The full `repro faults` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweepReport {
    /// Injected transient-fault rate of the faulted arms.
    pub fault_rate: f64,
    /// Fault-free reference arm.
    pub baseline: FaultArm,
    /// Faults + default supervision.
    pub supervised: FaultArm,
    /// Faults + retries disabled.
    pub retryless: FaultArm,
    /// Table I recomputed under every arm came out identical.
    pub table1_invariant: bool,
    /// Supervised class mix equals the baseline class mix exactly.
    pub supervised_matches_baseline: bool,
    /// Retry-less class mix equals the baseline class mix.
    pub retryless_matches_baseline: bool,
}

/// Run the three-arm sweep at `rate` (e.g. `0.2` = 20% of URLs flaky).
pub fn fault_sweep(spec: &CorpusSpec, seed: u64, rate: f64) -> FaultSweepReport {
    let (base_records, base_table1) = run_arm(spec, seed, ScanPolicy::default());
    let faulty = spec.clone().with_fault_rate(rate);
    let (sup_records, sup_table1) = run_arm(&faulty, seed, ScanPolicy::default());
    let (raw_records, raw_table1) =
        run_arm(&faulty, seed, ScanPolicy::default().with_max_retries(0));

    let baseline = summarize("baseline", &base_records, &base_records);
    let supervised = summarize("supervised", &sup_records, &base_records);
    let retryless = summarize("retryless", &raw_records, &base_records);
    FaultSweepReport {
        fault_rate: rate,
        table1_invariant: base_table1 == sup_table1 && base_table1 == raw_table1,
        supervised_matches_baseline: supervised.class_mix == baseline.class_mix
            && (supervised.class_agreement - 1.0).abs() < f64::EPSILON,
        retryless_matches_baseline: retryless.class_mix == baseline.class_mix,
        baseline,
        supervised,
        retryless,
    }
}

/// Generate a fresh corpus for one arm (same seed, so the three corpora
/// are identical modulo the installed fault plan) and scan it.
fn run_arm(spec: &CorpusSpec, seed: u64, policy: ScanPolicy) -> (Vec<ScanRecord>, Table1) {
    let corpus = Corpus::generate(spec, seed);
    let records = CrawlerBox::new(&corpus.world)
        .with_policy(policy)
        .scan_all(&corpus.messages);
    (records, table1::table1())
}

fn summarize(label: &str, records: &[ScanRecord], baseline: &[ScanRecord]) -> FaultArm {
    let agreeing = records
        .iter()
        .zip(baseline)
        .filter(|(r, b)| r.class == b.class)
        .count();
    let visits = records.iter().flat_map(|r| r.visits.iter());
    FaultArm {
        label: label.to_string(),
        class_mix: ClassMix::of(records),
        class_agreement: agreeing as f64 / records.len().max(1) as f64,
        visits_with_faults: visits
            .clone()
            .filter(|v| v.attempts.iter().any(|a| !a.failures.is_empty()))
            .count(),
        total_attempts: visits.clone().map(|v| v.attempts.len()).sum(),
        failed_visits: visits.filter(|v| v.error.is_some()).count(),
    }
}

impl fmt::Display for FaultSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault sweep @ {:.0}% transient-fault rate",
            self.fault_rate * 100.0
        )?;
        for arm in [&self.baseline, &self.supervised, &self.retryless] {
            writeln!(
                f,
                "{:>11}: agreement {:>6.1}% | faulted visits {:>4} | attempts {:>5} | still-failed {:>4}",
                arm.label,
                arm.class_agreement * 100.0,
                arm.visits_with_faults,
                arm.total_attempts,
                arm.failed_visits,
            )?;
        }
        writeln!(
            f,
            "table I invariant: {} | supervised mix == baseline: {} | retryless mix == baseline: {}",
            self.table1_invariant, self.supervised_matches_baseline, self.retryless_matches_baseline
        )?;
        writeln!(f, "\nsupervised class mix:\n{}", self.supervised.class_mix)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_report_assembles() {
        let spec = CorpusSpec::paper().with_scale(0.01);
        let report = fault_sweep(&spec, 5, 0.2);
        assert!(report.table1_invariant);
        assert!(
            report.supervised_matches_baseline,
            "supervision must recover the class mix: {report}"
        );
        assert!(report.supervised.total_attempts >= report.baseline.total_attempts);
        let rendered = report.to_string();
        assert!(rendered.contains("supervised"));
        let json = cb_json::to_string(&report).unwrap();
        assert!(json.contains("class_agreement"));
    }
}
