//! The tentpole robustness claim, end to end: under a 20% transient-fault
//! rate the supervised pipeline reproduces the fault-free §V class mix and
//! Table I exactly, a retry-less pipeline demonstrably degrades, and the
//! supervised scan stays deterministic across parallel and serial runs.
//!
//! Every arm generates a *fresh* corpus from the same seed: scanning
//! mutates world state (IP allocation, serve counters), so the same seed
//! must be replayed, never the same `Corpus` value rescanned.

use cb_phishgen::{Corpus, CorpusSpec};
use crawlerbox::analysis::fault_sweep;
use crawlerbox::{CrawlerBox, ScanPolicy, ScanRecord};

const SEED: u64 = 2024;
const RATE: f64 = 0.2;

fn scan_fresh(scale: f64, rate: f64, policy: ScanPolicy) -> Vec<ScanRecord> {
    let mut spec = CorpusSpec::paper().with_scale(scale);
    if rate > 0.0 {
        spec = spec.with_fault_rate(rate);
    }
    let corpus = Corpus::generate(&spec, SEED);
    CrawlerBox::new(&corpus.world)
        .with_policy(policy)
        .scan_all(&corpus.messages)
}

#[test]
fn supervised_scan_reproduces_baseline_classes_under_faults() {
    let baseline = scan_fresh(0.05, 0.0, ScanPolicy::default());
    let supervised = scan_fresh(0.05, RATE, ScanPolicy::default());
    assert_eq!(baseline.len(), supervised.len());

    for (b, s) in baseline.iter().zip(&supervised) {
        assert_eq!(
            b.class,
            s.class,
            "message {} diverged under supervision: {:?}",
            b.message_id,
            s.visits.iter().map(|v| &v.attempts).collect::<Vec<_>>()
        );
    }

    // The agreement must be earned: the supervisor actually retried.
    let retried_visits: usize = supervised
        .iter()
        .flat_map(|r| r.visits.iter())
        .filter(|v| v.attempts.len() > 1)
        .count();
    assert!(
        retried_visits > 0,
        "a 20% fault rate must force at least one retry"
    );
    // ... and every retried visit recovered (bounded consecutive faults
    // guarantee a clean attempt within the retry budget).
    for v in supervised.iter().flat_map(|r| r.visits.iter()) {
        assert!(v.error.is_none(), "supervised visit still failed: {v:?}");
    }
}

#[test]
fn retryless_pipeline_degrades_where_supervision_recovers() {
    let baseline = scan_fresh(0.05, 0.0, ScanPolicy::default());
    let retryless = scan_fresh(0.05, RATE, ScanPolicy::default().with_max_retries(0));
    assert_eq!(baseline.len(), retryless.len());

    let diverged = baseline
        .iter()
        .zip(&retryless)
        .filter(|(b, r)| b.class != r.class)
        .count();
    assert!(
        diverged > 0,
        "retry-less scanning at a 20% fault rate must misclassify some messages"
    );
    // Retry-less visits that hit a fault carry structured error provenance.
    let failed = retryless
        .iter()
        .flat_map(|r| r.visits.iter())
        .filter(|v| v.error.is_some())
        .count();
    assert!(failed > 0, "degraded visits must record an error");
}

#[test]
fn fault_sweep_report_proves_the_invariance_claim() {
    let spec = CorpusSpec::paper().with_scale(0.04);
    let report = fault_sweep(&spec, SEED, RATE);

    assert!(report.table1_invariant, "Table I must be fault-invariant");
    assert!(
        report.supervised_matches_baseline,
        "supervised arm must reproduce the baseline class mix: {report}"
    );
    assert!(
        report.retryless.class_agreement < 1.0,
        "retry-less arm must degrade class agreement: {report}"
    );
    assert!(
        report.supervised.visits_with_faults > 0,
        "the supervised arm must actually have observed faults"
    );
    assert!(report.supervised.total_attempts > report.baseline.total_attempts);
    assert_eq!(report.supervised.failed_visits, 0);
}

#[test]
fn parallel_and_serial_scans_agree_under_faults() {
    let spec = CorpusSpec::paper().with_scale(0.03).with_fault_rate(RATE);

    let parallel = {
        let corpus = Corpus::generate(&spec, SEED);
        let mut cbx = CrawlerBox::new(&corpus.world);
        cbx.parallelism = 8;
        cbx.scan_all(&corpus.messages)
    };
    let serial = {
        let corpus = Corpus::generate(&spec, SEED);
        let cbx = CrawlerBox::new(&corpus.world);
        corpus
            .messages
            .iter()
            .map(|m| cbx.scan(m))
            .collect::<Vec<_>>()
    };

    assert_eq!(parallel.len(), serial.len());
    // Exfil bodies embed allocation-order-dependent IPs, so compare the
    // deterministic surface: class, error, and per-visit crawl shape.
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.class, s.class, "message {}", p.message_id);
        assert_eq!(p.error, s.error);
        assert_eq!(p.visits.len(), s.visits.len());
        for (pv, sv) in p.visits.iter().zip(&s.visits) {
            assert_eq!(pv.requested_url, sv.requested_url);
            assert_eq!(pv.chain, sv.chain);
            assert_eq!(pv.outcome, sv.outcome);
            assert_eq!(pv.status, sv.status);
            assert_eq!(pv.login_form, sv.login_form);
            assert_eq!(pv.attempts, sv.attempts);
            assert_eq!(pv.error, sv.error);
        }
    }
}
