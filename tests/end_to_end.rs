//! End-to-end integration: corpus → CrawlerBox → analysis, asserting the
//! paper's headline shapes at reduced scale.

use cb_phishgen::{Corpus, CorpusSpec, MessageClass};
use crawlerbox::analysis::analyze;
use crawlerbox::CrawlerBox;

fn run(scale: f64, seed: u64) -> (Corpus, crawlerbox::analysis::AnalysisReport) {
    let spec = CorpusSpec::paper().with_scale(scale);
    let corpus = Corpus::generate(&spec, seed);
    let mut cbx = CrawlerBox::new(&corpus.world);
    cbx.parallelism = 8;
    let records = cbx.scan_all(&corpus.messages);
    let report = analyze(&corpus.world, &spec, &records);
    (corpus, report)
}

#[test]
fn headline_shapes_hold_at_ten_percent_scale() {
    let (corpus, report) = run(0.10, 2024);

    // Class mix tracks §V within a few points.
    let mix = &report.class_mix;
    assert_eq!(mix.total, corpus.messages.len());
    assert!(
        (mix.percent(mix.no_resource) - 49.6).abs() < 4.0,
        "no-resource {:.1}%",
        mix.percent(mix.no_resource)
    );
    assert!(
        (mix.percent(mix.active_phish) - 29.9).abs() < 4.0,
        "active {:.1}%",
        mix.percent(mix.active_phish)
    );
    assert!((mix.percent(mix.error_pages) - 15.9).abs() < 4.0);

    // Spear share ≈ 73.3%.
    let spear_share = report.spear.spear as f64 / report.spear.active.max(1) as f64;
    assert!(
        (spear_share - 0.733).abs() < 0.08,
        "spear share {spear_share}"
    );

    // Hotlinking ≈ 29.8% of spear.
    let hotlink_share = report.spear.hotlinking as f64 / report.spear.spear.max(1) as f64;
    assert!(
        (hotlink_share - 0.298).abs() < 0.10,
        "hotlink share {hotlink_share}"
    );

    // Lexical ≈ 15.7%, zero punycode.
    let lex_share = report.lexical.deceptive as f64 / report.lexical.total.max(1) as f64;
    assert!(
        (lex_share - 0.157).abs() < 0.06,
        "lexical share {lex_share}"
    );
    assert_eq!(report.lexical.punycode, 0);

    // Volume shape: median 1 message/domain, low-volume singles.
    assert_eq!(report.volumes.median_messages, 1.0);
    assert!(report.volumes.single_median_total < report.volumes.multi_median_total);

    // Timeline shape: registration long before certificate before delivery.
    assert!(report.figure3.describe_a.median > report.figure3.describe_b.median);
    assert!(report.figure3.describe_a.skewness > 1.0, "right-skewed");
    assert!(report.figure3.a_over_90d > report.figure3.b_over_90d);

    // Challenge gating ≈ 74%+ of credential messages.
    let (gated, total) = report.challenge_gating;
    assert!(total > 0);
    assert!(gated as f64 / total as f64 > 0.5, "gating {gated}/{total}");

    // Table I invariants.
    assert_eq!(
        report.table1.rows.iter().filter(|r| r.passes_all()).count(),
        3
    );

    // Monthly series: 10 months, downward.
    assert_eq!(report.figure2.series.len(), 10);
    let first = report.figure2.series[0].2;
    let last = report.figure2.series[9].2;
    assert!(first > 2 * last, "downward trend {first} -> {last}");

    // t-test: 2023 volumes significantly above 2024.
    let t = report.t_test.expect("10-month windows");
    assert!(t.rejects_null_at(0.05), "{t}");
    assert!(t.mean_diff > 0.0, "2023 exceeded 2024");
}

#[test]
fn crawlerbox_agrees_with_ground_truth_classes() {
    let spec = CorpusSpec::paper().with_scale(0.05);
    let corpus = Corpus::generate(&spec, 7);
    let cbx = CrawlerBox::new(&corpus.world);
    let records = cbx.scan_all(&corpus.messages);
    let mut confusion = std::collections::BTreeMap::new();
    for (r, m) in records.iter().zip(&corpus.messages) {
        *confusion.entry((m.truth.class, r.class)).or_insert(0usize) += 1;
    }
    let agree: usize = confusion
        .iter()
        .filter(|((t, d), _)| t == d)
        .map(|(_, n)| n)
        .sum();
    let total = corpus.messages.len();
    assert!(
        agree as f64 / total as f64 > 0.95,
        "agreement {agree}/{total}; confusion: {confusion:?}"
    );
}

#[test]
fn weak_crawler_sees_far_fewer_phish_pages() {
    // The Table I result as a corpus-level outcome: swapping NotABot for a
    // stealth-plugin crawler collapses the active-phish yield.
    let spec = CorpusSpec::paper().with_scale(0.04);
    let corpus = Corpus::generate(&spec, 11);
    let strong = CrawlerBox::new(&corpus.world);
    let weak =
        CrawlerBox::new(&corpus.world).with_profile(cb_browser::CrawlerProfile::PuppeteerStealth);
    let strong_records = strong.scan_all(&corpus.messages);
    let weak_records = weak.scan_all(&corpus.messages);
    let phish = |records: &[crawlerbox::ScanRecord]| {
        records
            .iter()
            .filter(|r| r.class == MessageClass::ActivePhish)
            .count()
    };
    let strong_n = phish(&strong_records);
    let weak_n = phish(&weak_records);
    assert!(
        weak_n * 2 < strong_n,
        "weak crawler found {weak_n} vs NotABot {strong_n}"
    );
}

#[test]
fn deterministic_end_to_end() {
    let (_, a) = run(0.02, 5);
    let (_, b) = run(0.02, 5);
    assert_eq!(a.class_mix, b.class_mix);
    assert_eq!(a.table2, b.table2);
    assert_eq!(a.spear, b.spear);
}

#[test]
fn referral_tracking_defence_detects_lookalikes_early() {
    // §V-A: "by identifying referrals in requests made for the
    // aforementioned web resources within their own systems, organizations
    // can track, at early stages, pages impersonating their login sites."
    let spec = CorpusSpec::paper().with_scale(0.08);
    let corpus = Corpus::generate(&spec, 3);
    let records = CrawlerBox::new(&corpus.world).scan_all(&corpus.messages);

    // Which hotlinking lookalike domains did the pipeline observe?
    let observed_hotlinkers: std::collections::BTreeSet<String> = records
        .iter()
        .filter_map(|r| r.phish_visit())
        .filter(|v| {
            v.subresources.iter().any(|(u, status)| {
                *status == 200
                    && cb_phishkit::Brand::companies()
                        .iter()
                        .any(|b| u.contains(b.legit_domain()))
            })
        })
        .filter_map(|v| v.landing_domain())
        .collect();
    assert!(!observed_hotlinkers.is_empty(), "some campaigns hotlink");

    // Every one of them must already be visible in the organizations' own
    // asset-referral logs — no email access required.
    let mut logged_referrers: std::collections::BTreeSet<String> =
        std::collections::BTreeSet::new();
    for (_, site) in &corpus.legit_sites {
        for referer in site.foreign_referrals() {
            if let Ok(u) = cb_netsim::Url::parse(&referer) {
                logged_referrers.insert(u.host);
            }
        }
    }
    for domain in &observed_hotlinkers {
        assert!(
            logged_referrers.contains(domain),
            "hotlinker {domain} missing from the org-side referral logs"
        );
    }
}

#[test]
fn fallback_crawlers_recover_what_a_weak_primary_misses() {
    // The paper's future-work item: diversified crawler components. A
    // pipeline whose primary is the stealth-plugin crawler misses
    // Turnstile-gated kits; with NotABot as fallback it recovers them.
    let spec = CorpusSpec::paper().with_scale(0.03);
    let corpus = Corpus::generate(&spec, 19);
    let weak_only =
        CrawlerBox::new(&corpus.world).with_profile(cb_browser::CrawlerProfile::PuppeteerStealth);
    let weak_with_fallback = CrawlerBox::new(&corpus.world)
        .with_profile(cb_browser::CrawlerProfile::PuppeteerStealth)
        .with_fallbacks(&[cb_browser::CrawlerProfile::NotABot]);
    let phish = |records: &[crawlerbox::ScanRecord]| {
        records
            .iter()
            .filter(|r| r.class == MessageClass::ActivePhish)
            .count()
    };
    let alone = phish(&weak_only.scan_all(&corpus.messages));
    let diversified = phish(&weak_with_fallback.scan_all(&corpus.messages));
    let truth = corpus
        .messages
        .iter()
        .filter(|m| m.truth.class == MessageClass::ActivePhish)
        .count();
    assert!(
        alone < diversified,
        "fallback must add coverage ({alone} vs {diversified})"
    );
    assert!(
        diversified as f64 >= truth as f64 * 0.9,
        "diversified pipeline recovers most phish ({diversified}/{truth})"
    );
}
