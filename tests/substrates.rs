//! Cross-crate substrate integration: the seams between email, QR, images,
//! PDFs, archives, the browser and the detection services.

use cb_artifacts::{qrimage, Bitmap, PdfDocument, Rgb, ZipArchive};
use cb_botdetect::{Detector, Turnstile};
use cb_browser::{Browser, CrawlerProfile};
use cb_email::{MessageBuilder, MimeEntity};
use cb_netsim::{HttpRequest, HttpResponse, Internet, NetContext};
use cb_phishkit::{Brand, CloakConfig, PhishingSite};
use cb_qr::{encode_bytes, EcLevel};
use cb_sim::SimTime;
use crawlerbox::extract::{extract_resources, ExtractionSource};

#[test]
fn qr_survives_full_email_round_trip() {
    // encode → render → attach → MIME wire → parse → detect → decode → URL
    let url = "https://round-trip.example/fulltok1";
    let symbol = encode_bytes(url.as_bytes(), EcLevel::Q).unwrap();
    let image = qrimage::render(symbol.matrix(), 3);
    let raw = MessageBuilder::new()
        .subject("scan me")
        .text_body("see attachment")
        .attach("code.png", "image/png", &image.to_bytes())
        .build();
    let parsed = MimeEntity::parse(&raw).unwrap();
    let found = extract_resources(&parsed);
    assert!(found
        .iter()
        .any(|r| r.url == url && r.source == ExtractionSource::QrCode { faulty: false }));
}

#[test]
fn qr_inside_pdf_page_screenshot_is_not_supported_but_pdf_text_is() {
    // The PDF path extracts annotation links and OCRs page screenshots.
    let mut doc = PdfDocument::new();
    let mut page = cb_artifacts::pdf::PdfPage::new();
    page.text(6, 6, "VISIT HTTPS://PDFPAGE.EXAMPLE/OCR1 NOW");
    doc.page(page);
    let raw = MessageBuilder::new()
        .subject("invoice")
        .attach("inv.pdf", "application/pdf", &doc.to_bytes())
        .build();
    let parsed = MimeEntity::parse(&raw).unwrap();
    let found = extract_resources(&parsed);
    assert!(
        found.iter().any(
            |r| r.url.contains("pdfpage.example/ocr1") && r.source == ExtractionSource::PdfText
        ),
        "{found:?}"
    );
}

#[test]
fn zip_of_eml_of_image_recurses() {
    // A ZIP containing an EML containing a QR image: three container hops.
    let url = "https://deep-nest.example/depthtk1";
    let symbol = encode_bytes(url.as_bytes(), EcLevel::M).unwrap();
    let image = qrimage::render(symbol.matrix(), 2);
    let inner_eml = MessageBuilder::new()
        .subject("inner")
        .attach("qr.png", "image/png", &image.to_bytes())
        .build();
    let mut zip = ZipArchive::new();
    zip.add("mail.eml", inner_eml.as_bytes());
    let raw = MessageBuilder::new()
        .subject("outer")
        .attach("bundle.zip", "application/zip", &zip.to_bytes())
        .build();
    let parsed = MimeEntity::parse(&raw).unwrap();
    let found = extract_resources(&parsed);
    assert!(
        found.iter().any(|r| r.url == url),
        "nested URL recovered: {found:?}"
    );
}

#[test]
fn octet_stream_mislabeled_pdf_is_sniffed() {
    let mut doc = PdfDocument::new();
    let mut page = cb_artifacts::pdf::PdfPage::new();
    page.link("https://sniffed.example/pdf");
    doc.page(page);
    let raw = MessageBuilder::new()
        .subject("file")
        .attach("data.bin", "application/octet-stream", &doc.to_bytes())
        .build();
    let parsed = MimeEntity::parse(&raw).unwrap();
    let found = extract_resources(&parsed);
    assert!(found.iter().any(|r| r.url == "https://sniffed.example/pdf"));
}

#[test]
fn browser_attestation_matches_detector_view() {
    // What a kit's Turnstile sees through the attestation header equals
    // what the pure detector computes from the profile.
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    net.register_domain("probe.example", "REG");
    net.host("probe.example", |req: &HttpRequest, _: &NetContext<'_>| {
        let report = cb_browser::ChallengeReport::from_request(req).unwrap();
        let verdict = Turnstile::default().evaluate(&report);
        HttpResponse::html(&format!("<p>human={}</p>", verdict.is_human()))
    });
    for profile in CrawlerProfile::table1() {
        let visit = Browser::new(profile).visit(&net, "https://probe.example/");
        let via_http = visit
            .document
            .unwrap()
            .visible_text()
            .contains("human=true");
        let direct = Turnstile::default()
            .evaluate(&profile.fingerprint().attestation())
            .is_human();
        assert_eq!(via_http, direct, "{profile}");
    }
}

#[test]
fn hue_rotated_phish_page_screenshot_still_classifies() {
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    net.register_domain("rotated.example", "REG");
    net.register_domain(Brand::FareLogic.legit_domain(), "CORP");
    net.host(
        Brand::FareLogic.legit_domain(),
        cb_phishkit::brand::LegitSite::new(Brand::FareLogic),
    );
    let mut cloak = CloakConfig::none();
    cloak.client.hue_rotate = true;
    cloak.client.hotlink_brand_resources = true;
    net.host(
        "rotated.example",
        PhishingSite::new(Brand::FareLogic, "https://rotated.example", cloak),
    );
    let visit = Browser::new(CrawlerProfile::NotABot).visit(&net, "https://rotated.example/");
    assert!(visit.shows_login_form());
    let classifier = crawlerbox::SpearClassifier::new();
    let m = classifier
        .classify(&visit.screenshot.as_ref().unwrap().render())
        .expect("hue rotation must not defeat the classifier");
    assert_eq!(m.brand, Brand::FareLogic);
    // and the hotlinked logo request hit the real org's infrastructure
    assert!(visit
        .subresources
        .iter()
        .any(|(u, status)| u.host == Brand::FareLogic.legit_domain() && *status == 200));
}

#[test]
fn image_noise_does_not_create_phantom_urls() {
    let img = Bitmap::new(300, 120, Rgb::WHITE).add_noise(12345, 500);
    let raw = MessageBuilder::new()
        .subject("pic")
        .attach("noise.png", "image/png", &img.to_bytes())
        .build();
    let parsed = MimeEntity::parse(&raw).unwrap();
    let found = extract_resources(&parsed);
    assert!(found.is_empty(), "phantom URLs: {found:?}");
}

// ---------------------------------------------------------------------------
// Zero-copy substrate equivalence: the borrowed-span MIME parser, the LUT
// HTML tokenizer, and the word-packed ink kernels must agree with the
// frozen pre-change implementations (kept in-tree as differential oracles)
// on *every* input — including inputs where a fraction of the bytes has
// been faulted, since corrupted messages are exactly where a hand-rolled
// byte scanner and the original char-by-char code could diverge.
// ---------------------------------------------------------------------------

use cb_email::reference as email_oracle;
use cb_sim::prop::{check, one_of, vec};
use cb_sim::prop_assert_eq;
use cb_web::html;

/// Structural MIME fragments: boundaries, folded headers, encodings, and
/// the separators whose misplacement stresses part splitting.
const MIME_ATOMS: &[&str] = &[
    "Content-Type: multipart/mixed; boundary=bb\r\n",
    "Content-Type: multipart/alternative; boundary=\"q q\"\r\n",
    "Content-Type: text/html; charset=utf-8\r\n",
    "Content-Type: text/plain\r\n",
    "Content-Transfer-Encoding: base64\r\n",
    "Content-Transfer-Encoding: quoted-printable\r\n",
    "Subject: spanning\r\n",
    "Subject: fold\r\n\tcontinues\r\n",
    "X-Loop: a\n",
    "\r\n",
    "\n",
    "--bb\r\n",
    "--bb--\r\n",
    "--bb\n",
    "--bb--",
    "--q q\r\n",
    "Zm9vYmFy\r\n",
    "caf=C3=A9=\r\n",
    "plain body text\r\n",
    "<p>inline html</p>\r\n",
    ": no name\r\n",
    " leading continuation\r\n",
];

/// HTML soup fragments for the tokenizer: tags, attribute quoting styles,
/// rawtext elements, comments, entities and truncation points.
const HTML_ATOMS: &[&str] = &[
    "<div>",
    "</div>",
    "<p ",
    "<a href=",
    "\"u\"",
    "'v'",
    "bare",
    ">",
    "/>",
    "=",
    "</p>",
    "<script>",
    "</script>",
    "<style>",
    "</style>",
    "<!--",
    "-->",
    "<!",
    "<br>",
    "text",
    " ",
    "&amp;",
    "&#65;",
    "<",
    "</",
    "<img src=x>",
    "\t",
    "<B CLASS=upper>",
    "</B>",
    "<sPaN a=1 a=2>",
    "</span >",
];

/// Overwrite roughly `rate` of the single-byte positions of `text` with
/// structure-bearing ASCII, deterministically from `seed`. Only ASCII
/// positions are rewritten so the result stays valid UTF-8.
fn inject_faults(text: &str, rate: f64, seed: u64) -> String {
    const FAULTS: &[u8] = b"-=\r\n<>\"';:& b";
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut bytes = text.as_bytes().to_vec();
    for b in bytes.iter_mut() {
        if b.is_ascii() && (next() % 10_000) as f64 / 10_000.0 < rate {
            *b = FAULTS[(next() as usize) % FAULTS.len()];
        }
    }
    String::from_utf8(bytes).expect("ASCII-only rewrites preserve UTF-8")
}

#[test]
fn span_mime_parser_matches_oracle_under_faults() {
    let inputs = (vec(one_of(MIME_ATOMS), 0..12), 0.0..0.30f64, 0..=u64::MAX);
    check(
        "span_mime_parser_matches_oracle_under_faults",
        64,
        inputs,
        |(atoms, rate, seed)| {
            let raw = inject_faults(&atoms.concat(), rate, seed);
            prop_assert_eq!(
                cb_email::MimeEntity::parse(&raw),
                email_oracle::parse_message(&raw),
                "raw {:?}",
                raw
            );
            Ok(())
        },
    );
}

#[test]
fn lut_tokenizer_matches_oracle_under_faults() {
    let inputs = (vec(one_of(HTML_ATOMS), 0..16), 0.0..0.30f64, 0..=u64::MAX);
    check(
        "lut_tokenizer_matches_oracle_under_faults",
        64,
        inputs,
        |(atoms, rate, seed)| {
            let input = inject_faults(&atoms.concat(), rate, seed);
            prop_assert_eq!(
                html::parse_fragment(&input),
                html::reference::parse_fragment(&input),
                "input {:?}",
                input
            );
            Ok(())
        },
    );
}

#[test]
fn word_packed_masks_match_bool_reference() {
    let inputs = (
        1usize..40,
        1usize..24,
        0..=u8::MAX,
        0..=u64::MAX,
        0usize..400,
    );
    check(
        "word_packed_masks_match_bool_reference",
        64,
        inputs,
        |(w, h, threshold, seed, noise)| {
            let img = Bitmap::new(w, h, Rgb::WHITE).add_noise(seed, noise);
            let reference = img.with_ink_mask(threshold, |m| m.to_vec());
            img.with_ink_words(threshold, |ink| {
                prop_assert_eq!(ink.width(), w);
                prop_assert_eq!(ink.height(), h);
                for y in 0..h {
                    for x in 0..w {
                        prop_assert_eq!(
                            ink.get(x, y),
                            reference[y * w + x],
                            "pixel ({}, {}) under threshold {}",
                            x,
                            y,
                            threshold
                        );
                    }
                }
                prop_assert_eq!(ink.count_ink(), reference.iter().filter(|&&b| b).count());
                Ok(())
            })
        },
    );
}

#[test]
fn word_packed_hamming_matches_bool_xor() {
    let inputs = (
        1usize..40,
        1usize..24,
        0..=u8::MAX,
        0..=u64::MAX,
        0..=u64::MAX,
    );
    check(
        "word_packed_hamming_matches_bool_xor",
        64,
        inputs,
        |(w, h, threshold, seed_a, seed_b)| {
            // Well-separated noise seeds: add_noise derives its stream from
            // `seed | 1`, so adjacent seeds would collide.
            let a = Bitmap::new(w, h, Rgb::WHITE).add_noise(seed_a.wrapping_mul(2), 300);
            let b = Bitmap::new(w, h, Rgb::WHITE).add_noise(seed_b.wrapping_mul(2) ^ 0x5bd1, 300);
            let bools_a = a.with_ink_mask(threshold, |m| m.to_vec());
            let bools_b = b.with_ink_mask(threshold, |m| m.to_vec());
            let expected = bools_a.iter().zip(&bools_b).filter(|(x, y)| x != y).count();
            let got = a.with_ink_words(threshold, |ma| {
                b.with_ink_words(threshold, |mb| ma.hamming(mb))
            });
            prop_assert_eq!(got, expected);
            Ok(())
        },
    );
}

// Named regressions promoted from the fuzz corpus: the MIME boundary edges
// where span arithmetic is easiest to get wrong.

#[test]
fn mime_equivalence_empty_boundary() {
    // boundary="" makes every line a candidate delimiter ("--" prefix).
    let raw = concat!(
        "Content-Type: multipart/mixed; boundary=\"\"\r\n",
        "\r\n",
        "--\r\n",
        "Content-Type: text/plain\r\n",
        "\r\n",
        "body\r\n",
        "----\r\n",
    );
    assert_eq!(
        cb_email::MimeEntity::parse(raw),
        email_oracle::parse_message(raw)
    );
}

#[test]
fn mime_equivalence_crlf_vs_lf() {
    // The same multipart message in CRLF and bare-LF framing must parse
    // to the same shape decisions under both parsers.
    let crlf = concat!(
        "Content-Type: multipart/mixed; boundary=bb\r\n",
        "\r\n",
        "--bb\r\n",
        "Content-Type: text/plain\r\n",
        "\r\n",
        "one\r\n",
        "--bb--\r\n",
    );
    let lf = crlf.replace("\r\n", "\n");
    assert_eq!(
        cb_email::MimeEntity::parse(crlf),
        email_oracle::parse_message(crlf)
    );
    assert_eq!(
        cb_email::MimeEntity::parse(&lf),
        email_oracle::parse_message(&lf)
    );
}

#[test]
fn mime_equivalence_truncated_final_part() {
    // Closing delimiter missing entirely, and cut mid-way through it.
    let whole = concat!(
        "Content-Type: multipart/mixed; boundary=bb\r\n",
        "\r\n",
        "--bb\r\n",
        "Content-Type: text/plain\r\n",
        "\r\n",
        "tail that never closes\r\n",
        "--bb--\r\n",
    );
    for cut in ["--bb--\r\n", "--bb--", "--bb", "--b", "-", ""] {
        let raw = whole.strip_suffix("--bb--\r\n").unwrap().to_string() + cut;
        assert_eq!(
            cb_email::MimeEntity::parse(&raw),
            email_oracle::parse_message(&raw),
            "cut {cut:?}"
        );
    }
}
