//! Quishing audit: the faulty-QR filter-bypass bug, end to end.
//!
//! Encodes clean and faulty QR payloads into real symbols, renders them
//! into email-attached images, and runs three extraction policies over the
//! decoded payloads — the strict commercial-filter behaviour that misses
//! the faulty codes, the lenient mobile-camera behaviour victims
//! experience, and the patched policy the vendors deployed after the
//! paper's responsible disclosure (§V-C1, §VIII).
//!
//! ```sh
//! cargo run --release --example quishing_audit
//! ```

use cb_artifacts::qrimage;
use cb_qr::extract::{extract_url_lenient, extract_url_patched, extract_url_strict};
use crawlerbox_suite::prelude::*;

fn main() {
    let cases = [
        ("clean", "https://evil-site.example/dhfYWfH"),
        ("junk prefix", "xxx https://evil-site.example/dhfYWfH"),
        ("bracket prefix", "[https://evil-site.example/dhfYWfH"),
        ("not a url", "WIFI:T:WPA;S:cafe;P:pw;;"),
    ];

    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>14}",
        "payload", "email filter", "victim phone", "patched", "crawlerbox"
    );
    println!("{}", "-".repeat(78));

    let mut filter_misses = 0;
    for (label, payload) in cases {
        // Encode into a real QR symbol and round-trip through an image, as
        // the corpus generator does for the 35 in-the-wild messages.
        let symbol = encode_bytes(payload.as_bytes(), EcLevel::M).expect("fits");
        let image = qrimage::render(symbol.matrix(), 2);
        let decoded = qrimage::decode_from_image(&image).expect("detector finds the symbol");
        assert_eq!(decoded, payload.as_bytes(), "lossless round trip");

        let strict = extract_url_strict(&decoded);
        let lenient = extract_url_lenient(&decoded);
        let patched = extract_url_patched(&decoded);
        let exposed = strict.is_none() && lenient.is_some();
        if exposed {
            filter_misses += 1;
        }
        let filter_verdict = match (&strict, &lenient) {
            (Some(_), _) => "caught",
            (None, Some(_)) => "MISSED",
            (None, None) => "no link",
        };
        println!(
            "{:<16} {:>14} {:>14} {:>14} {:>14}",
            label,
            filter_verdict,
            lenient.as_ref().map(|_| "opens link").unwrap_or("no link"),
            patched.map(|_| "caught").unwrap_or("no link"),
            if exposed { "flags faulty-QR" } else { "-" },
        );
    }

    println!(
        "\n{filter_misses} payload(s) slip past the strict filter while remaining \
         scannable by the victim's phone — the mismatch the paper found \
         exploited in 35 reported messages, now fixed by the disclosed patch."
    );

    // The full pipeline view: a message carrying a faulty QR is still
    // analyzed correctly by CrawlerBox, which uses the robust extraction.
    let net = Internet::new(SimTime::from_ymd(2024, 4, 1));
    net.register_domain("evil-site.example", "REGRU-RU");
    net.host(
        "evil-site.example",
        PhishingSite::new(
            Brand::PayRoute,
            "https://evil-site.example",
            CloakConfig::none(),
        ),
    );
    let mut rng = cb_sim::SeedFork::new(1).rng("example");
    let raw = cb_phishgen::messages::build_message(
        &mut rng,
        cb_phishgen::messages::Carrier::QrCode { faulty: true },
        Some("https://evil-site.example/dhfYWfH"),
        "victim-9@corp.example",
        net.now(),
        false,
        None,
        0,
    );
    let message = cb_phishgen::ReportedMessage {
        id: 0,
        raw,
        delivered_at: net.now(),
        victim: "victim-9@corp.example".to_string(),
        truth: cb_phishgen::GroundTruth {
            class: cb_phishgen::MessageClass::ActivePhish,
            campaign: None,
            carrier: cb_phishgen::messages::Carrier::QrCode { faulty: true },
            spear: true,
            noise_padded: false,
            url: None,
        },
    };
    let record = CrawlerBox::new(&net).scan(&message);
    println!(
        "\nCrawlerBox on the faulty-QR message: class {:?}, faulty-QR flagged: {}",
        record.class,
        record.has_faulty_qr()
    );
    assert!(record.has_faulty_qr());
}
