//! Failure injection: CrawlerBox must survive hostile, malformed and
//! adversarial inputs without panicking — truncated attachments, header
//! bombs, recursive containers, scripts that loop, kits that lie.

use cb_email::MessageBuilder;
use cb_netsim::{HttpRequest, HttpResponse, Internet, NetContext};
use cb_phishgen::messages::Carrier;
use cb_phishgen::{GroundTruth, MessageClass, ReportedMessage};
use cb_sim::SimTime;
use crawlerbox::CrawlerBox;

fn message_from(raw: String) -> ReportedMessage {
    ReportedMessage {
        id: 0,
        raw,
        delivered_at: SimTime::from_ymd(2024, 3, 1),
        victim: "v@corp.example".to_string(),
        truth: GroundTruth {
            class: MessageClass::NoResource,
            campaign: None,
            carrier: Carrier::None,
            spear: false,
            noise_padded: false,
            url: None,
        },
    }
}

fn scan(net: &Internet, raw: String) -> crawlerbox::ScanRecord {
    CrawlerBox::new(net).scan(&message_from(raw))
}

#[test]
fn malformed_mime_inputs_never_panic() {
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    for raw in [
        String::new(),
        "garbage without any headers at all".to_string(),
        "Content-Type: multipart/mixed\r\n\r\nno boundary".to_string(),
        "Subject: truncated base64\r\nContent-Transfer-Encoding: base64\r\n\r\nZm9v!!!".to_string(),
        "A: \u{0}\u{1}\u{2}\r\n\r\nbinary header values".to_string(),
        format!(
            "Subject: header bomb\r\n{}\r\n\r\nx",
            "X-Pad: y\r\n".repeat(5000)
        ),
    ] {
        let record = scan(&net, raw);
        assert_eq!(record.class, MessageClass::NoResource);
    }
}

#[test]
fn truncated_attachments_never_panic() {
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    // Build valid containers, then truncate the encoded bytes.
    let mut zip = cb_artifacts::ZipArchive::new();
    zip.add("a.txt", b"https://x.example/hello");
    let mut zip_bytes = zip.to_bytes();
    zip_bytes.truncate(zip_bytes.len() / 2);

    let mut pdf = cb_artifacts::PdfDocument::new();
    let mut page = cb_artifacts::pdf::PdfPage::new();
    page.link("https://x.example/pdf");
    pdf.page(page);
    let mut pdf_bytes = pdf.to_bytes();
    pdf_bytes.truncate(20);

    let img = cb_artifacts::Bitmap::new(50, 20, cb_artifacts::Rgb::WHITE);
    let mut img_bytes = img.to_bytes();
    img_bytes.truncate(30);

    for (name, ct, data) in [
        ("broken.zip", "application/zip", zip_bytes),
        ("broken.pdf", "application/pdf", pdf_bytes),
        ("broken.png", "image/png", img_bytes),
        ("empty.bin", "application/octet-stream", Vec::new()),
    ] {
        let mut b = MessageBuilder::new();
        b.subject("damaged").attach(name, ct, &data);
        let record = scan(&net, b.build());
        assert!(record.visits.is_empty() || record.class != MessageClass::ActivePhish);
    }
}

#[test]
fn zip_bomb_nesting_terminates() {
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    let mut inner = cb_artifacts::ZipArchive::new();
    inner.add("u.txt", b"https://deep.example/x");
    let mut bytes = inner.to_bytes();
    for i in 0..12 {
        let mut z = cb_artifacts::ZipArchive::new();
        z.add(&format!("l{i}.zip"), &bytes);
        bytes = z.to_bytes();
    }
    let mut b = MessageBuilder::new();
    b.subject("matryoshka")
        .attach("bomb.zip", "application/zip", &bytes);
    let record = scan(&net, b.build());
    // bounded recursion: the deeply nested URL is not surfaced, no hang
    assert!(record.extracted.is_empty());
}

#[test]
fn page_with_infinite_script_loop_is_bounded() {
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    net.register_domain("spinner.example", "REG");
    net.host("spinner.example", |_: &HttpRequest, _: &NetContext<'_>| {
        HttpResponse::html(r#"<script>while (true) { debugger; }</script><p>after</p>"#)
    });
    let mut b = MessageBuilder::new();
    b.subject("spin").text_body("https://spinner.example/");
    let record = scan(&net, b.build());
    // the script budget aborts the loop; the page still loads
    assert_eq!(record.visits.len(), 1);
    assert!(record.visits[0].debugger_hits > 0);
}

#[test]
fn server_returning_garbage_headers_is_survivable() {
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    net.register_domain("weird.example", "REG");
    net.host("weird.example", |_: &HttpRequest, _: &NetContext<'_>| {
        HttpResponse {
            status: 302,
            headers: vec![("Location".to_string(), "not a url at all \u{7}".to_string())],
            body: Vec::new(),
        }
    });
    let mut b = MessageBuilder::new();
    b.subject("redirect to garbage")
        .text_body("https://weird.example/");
    let record = scan(&net, b.build());
    assert_eq!(record.visits.len(), 1);
    assert_ne!(record.class, MessageClass::ActivePhish);
}

#[test]
fn redirect_chain_across_dead_domains_is_error_class() {
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    net.register_domain("alive.example", "REG");
    net.host("alive.example", |_: &HttpRequest, _: &NetContext<'_>| {
        HttpResponse::redirect("https://dead-end.example/next")
    });
    let mut b = MessageBuilder::new();
    b.subject("into the void")
        .text_body("https://alive.example/start");
    let record = scan(&net, b.build());
    assert_eq!(record.class, MessageClass::ErrorPage);
}

#[test]
fn scan_all_on_mixed_garbage_batch() {
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    let batch: Vec<ReportedMessage> = (0..24)
        .map(|i| {
            let mut m = message_from(match i % 4 {
                0 => String::new(),
                1 => "no headers".to_string(),
                2 => "Subject: ok\r\n\r\nhttps://void.example/x".to_string(),
                _ => format!("Subject: {}\r\n\r\nbody", "\u{fffd}".repeat(100)),
            });
            m.id = i;
            m
        })
        .collect();
    let records = CrawlerBox::new(&net).scan_all(&batch);
    assert_eq!(records.len(), 24);
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.message_id, i);
    }
}

#[test]
fn panicking_site_handler_degrades_one_record_not_the_batch() {
    // One poisoned message must never abort scan_all: the panic is caught
    // per message and surfaces as a degraded record with error provenance,
    // while every other message scans normally.
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    net.register_domain("fine.example", "REG");
    net.host("fine.example", |_: &HttpRequest, _: &NetContext<'_>| {
        HttpResponse::html("<p>all good</p>")
    });
    net.register_domain("boom.example", "REG");
    net.host("boom.example", |_: &HttpRequest, _: &NetContext<'_>| {
        panic!("handler exploded")
    });

    let mut batch = Vec::new();
    for (i, body) in [
        "see https://fine.example/a",
        "see https://boom.example/kaboom",
        "see https://fine.example/b",
    ]
    .iter()
    .enumerate()
    {
        let mut b = MessageBuilder::new();
        b.subject("mixed batch").text_body(body);
        let mut m = message_from(b.build());
        m.id = i;
        batch.push(m);
    }

    let records = CrawlerBox::new(&net).scan_all(&batch);
    assert_eq!(records.len(), 3, "every slot must be filled");
    assert!(records[0].error.is_none());
    assert!(records[2].error.is_none());
    let err = records[1].error.as_deref().expect("poisoned record tagged");
    assert!(err.contains("panic"), "provenance missing: {err}");
    assert_eq!(records[1].message_id, 1);
    // the clean neighbours crawled normally
    assert_eq!(records[0].visits.len(), 1);
    assert_eq!(records[2].visits.len(), 1);
}

#[test]
fn panicking_message_degrades_identically_at_every_worker_count() {
    // A panicking message in the middle of the batch must still yield
    // exactly one record per message, in message order, and every record —
    // including the degraded one — must be byte-identical whether one
    // worker or four scanned the batch. Each run gets a fresh world with
    // the same hosts, so no run can observe another's crawls.
    let world = || {
        let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
        net.register_domain("fine.example", "REG");
        net.host("fine.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html("<p>all good</p>")
        });
        net.register_domain("boom.example", "REG");
        net.host("boom.example", |_: &HttpRequest, _: &NetContext<'_>| {
            panic!("handler exploded")
        });
        net
    };

    let mut batch = Vec::new();
    for (i, body) in [
        "see https://fine.example/a",
        "see https://boom.example/kaboom",
        "see https://fine.example/b",
        "see https://fine.example/c",
        "see https://boom.example/again",
    ]
    .iter()
    .enumerate()
    {
        let mut b = MessageBuilder::new();
        b.subject("parallel batch").text_body(body);
        let mut m = message_from(b.build());
        m.id = i;
        batch.push(m);
    }

    let runs: Vec<String> = [1, 4]
        .into_iter()
        .map(|workers| {
            let net = world();
            let mut cbx = CrawlerBox::new(&net);
            cbx.parallelism = workers;
            let records = cbx.scan_all(&batch);
            assert_eq!(records.len(), batch.len(), "one record per message");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.message_id, i, "records stay in message order");
            }
            assert!(records[1].error.as_deref().unwrap_or("").contains("panic"));
            assert!(records[4].error.as_deref().unwrap_or("").contains("panic"));
            cb_json::to_string(&records).unwrap()
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "four workers must be bit-identical to one, degraded records included"
    );
}

#[test]
fn gate_page_lying_about_its_kind_is_not_solved() {
    // A site that presents a math gate but never accepts the answer must
    // settle as interaction-required, not loop.
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    net.register_domain("liar.example", "REG");
    net.host("liar.example", |_: &HttpRequest, _: &NetContext<'_>| {
        HttpResponse::html(r#"<p>What is 17 + 25?</p><div data-requires-interaction="math"></div>"#)
    });
    let mut b = MessageBuilder::new();
    b.subject("gate").text_body("https://liar.example/");
    let record = scan(&net, b.build());
    assert_eq!(record.class, MessageClass::InteractionRequired);
    // the solver tried (bounded retries), then gave up
    assert!(record.visits[0].gates_solved.len() <= 2);
}

#[test]
fn fixed_review_findings_hold_end_to_end() {
    // Regression sweep for the code-review findings, at the pipeline surface.
    let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
    net.register_domain("early-http.example", "REG");
    net.host(
        "early-http.example",
        |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html("<form action=/c><input type=password name=p></form>")
        },
    );

    // (a) an http:// phish followed by an https:// footer link is extracted
    let mut b = MessageBuilder::new();
    b.subject("order").text_body(
        "pay at http://early-http.example/tok88 now\r\n\r\nunsubscribe: https://mailer.example/u",
    );
    let record = scan(&net, b.build());
    assert!(
        record
            .extracted
            .iter()
            .any(|r| r.url == "http://early-http.example/tok88"),
        "{:?}",
        record.extracted
    );
    assert_eq!(record.class, MessageClass::ActivePhish);

    // (b) a Turkish dotted capital before the OTP marker must not panic or
    // corrupt the extracted code
    let mut b2 = MessageBuilder::new();
    b2.subject("otp").text_body(
        "\u{130}\u{130}\u{130} Your one-time access code: 491827 \u{20AC}\r\nhttps://early-http.example/x",
    );
    let record2 = scan(&net, b2.build());
    assert_eq!(record2.class, MessageClass::ActivePhish);

    // (c) faulty QR inside a nested EML keeps its provenance
    let symbol =
        cb_qr::encode_bytes(b"xxx https://early-http.example/qq", cb_qr::EcLevel::M).unwrap();
    let img = cb_artifacts::qrimage::render(symbol.matrix(), 2);
    let mut inner = MessageBuilder::new();
    inner
        .subject("inner")
        .attach("qr.png", "image/png", &img.to_bytes());
    let mut outer = MessageBuilder::new();
    outer
        .subject("fwd")
        .attach("mail.eml", "message/rfc822", inner.build().as_bytes());
    let record3 = scan(&net, outer.build());
    assert!(record3.has_faulty_qr(), "{:?}", record3.extracted);
}
