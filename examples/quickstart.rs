//! Quickstart: build a tiny world, deploy one cloaked phishing site, scan a
//! reported message with CrawlerBox, and inspect the verdict.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use crawlerbox_suite::prelude::*;

fn main() {
    // 1. A simulated internet starting in January 2024, with the target
    //    company's legitimate login page online.
    let net = Internet::new(SimTime::from_ymd(2024, 1, 1));
    let brand = Brand::Amadora;
    net.register_domain_at(
        brand.legit_domain(),
        "CORP-REG",
        SimTime::from_ymd(2018, 1, 1),
    );
    net.host(
        brand.legit_domain(),
        cb_phishkit::brand::LegitSite::new(brand),
    );

    // 2. The attacker registers a lookalike domain three weeks early (the
    //    paper's median: 24 days) and deploys a Turnstile-cloaked kit.
    net.register_domain_at(
        "cloud-portal-login.example",
        "REGRU-RU",
        SimTime::from_ymd(2024, 1, 2),
    );
    net.issue_certificate_at("cloud-portal-login.example", SimTime::from_ymd(2024, 1, 15));
    net.advance(SimDuration::days(23));
    let site = PhishingSite::new(brand, "https://cloud-portal-login.example", {
        let mut c = CloakConfig::typical_2024();
        c.client.hue_rotate = true;
        c
    });
    net.host("cloud-portal-login.example", site.clone());

    // 3. A user-reported message carrying the phishing URL.
    let raw = MessageBuilder::new()
        .from("it-desk@partner-billing.example")
        .to("victim-1@corp.example")
        .subject("Mailbox storage warning")
        .date("24 Jan 2024 09:15:00 +0000")
        .header(
            "Authentication-Results",
            "corp.example; spf=pass dkim=pass dmarc=pass",
        )
        .text_body(
            "Several messages are on hold.\r\n\r\nhttps://cloud-portal-login.example/a8k2mx9q\r\n",
        )
        .build();

    // 4. Scan it.
    let message = cb_phishgen::ReportedMessage {
        id: 0,
        raw,
        delivered_at: net.now(),
        victim: "victim-1@corp.example".to_string(),
        truth: cb_phishgen::GroundTruth {
            class: cb_phishgen::MessageClass::ActivePhish,
            campaign: None,
            carrier: cb_phishgen::messages::Carrier::BodyLink,
            spear: true,
            noise_padded: false,
            url: None,
        },
    };
    let cbx = CrawlerBox::new(&net);
    let record = cbx.scan(&message);

    // 5. Report.
    println!("extracted resources:");
    for r in &record.extracted {
        println!("  {} ({:?})", r.url, r.source);
    }
    for v in &record.visits {
        println!(
            "visit {} -> {:?} (status {}, login form: {})",
            v.requested_url, v.outcome, v.status, v.login_form
        );
        if let Some(m) = v.spear {
            println!(
                "  classified as SPEAR PHISHING impersonating {} (hash distance {})",
                m.brand, m.distance
            );
        }
        println!(
            "  landing domain registered {} / cert issued {} (timedeltas the paper tracks)",
            v.domain_registered_at
                .map(|t| t.to_string())
                .unwrap_or_else(|| "?".into()),
            v.cert_issued_at
                .map(|t| t.to_string())
                .unwrap_or_else(|| "?".into()),
        );
    }
    println!("derived class: {:?}", record.class);
    println!(
        "kit stats: phish served {} / benign served {}",
        site.stats().phish_served,
        site.stats().benign_served
    );
    assert_eq!(record.class, cb_phishgen::MessageClass::ActivePhish);
    assert!(
        record.spear_match().is_some(),
        "lookalike must be classified"
    );
    println!("\nquickstart OK: the cloaked lookalike was crawled and classified.");
}
