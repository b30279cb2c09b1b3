//! Per-substrate micro-benches for the zero-copy byte-level hot paths.
//!
//! Each arm measures one kernel the way the pipeline consumes it, against
//! the pre-change implementation kept in-tree as a differential oracle:
//!
//! | arm            | before                                   | after | `allocs_per_iter` counts |
//! |----------------|------------------------------------------|-------|--------------------------|
//! | `mime_parse`   | `cb_email::reference::parse_message`     | `MimeEntity::parse` (owned tree on borrowed-span primitives) | one owned parse |
//! | `html_tokenize`| DOM parse + three extraction walks       | `PageScan` single token-stream pass | one token drain (0) |
//! | `binarize`     | bool mask + column-major blank-band sweep| `InkMask` words + `leftmost_ink_in_band` | warm mask reuse (0) |
//! | `hamming`      | bool-slice XOR walk                      | `InkMask::hamming` (popcount over words) | one distance (0) |
//! | `qr_decode`    | — (absolute time only)                   | full image → payload decode | — |
//!
//! Every before/after pair is asserted identical on the fixture before any
//! timing, and the zero-allocation claims (token drain, warm mask reuse,
//! hamming) are enforced with a counting global allocator — not trusted
//! from inspection. `mime_parse` reports the allocations of one owned
//! `MimeEntity::parse` instead: the tree it builds owns its parts.
//!
//! ```text
//! cargo bench --bench substrate_micro                      # print JSON
//! cargo bench --bench substrate_micro -- --smoke           # few iters (CI)
//! cargo bench --bench substrate_micro -- --merge FILE      # fold a
//!     `micro_arms` section into an existing BENCH_pipeline.json
//! cargo bench --bench substrate_micro -- --gate            # additionally
//!     assert every ratio ≥ 1.5 (off by default: wall-clock gating is for
//!     dedicated machines, not noisy shared runners)
//! ```

use cb_artifacts::{Bitmap, InkMask, Rgb};
use cb_bench::allocs::{allocations_during, CountingAlloc};
use cb_email::{MessageBuilder, MimeEntity};
use cb_web::{Document, PageScan};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Glyph height of the built-in 5×7 font — the OCR band the sweep probes.
const BAND_H: usize = 7;

/// Binarization threshold shared by both mask representations.
const INK_THRESHOLD: u8 = 128;

/// Mean ns/iter, min over three batches (the min discards scheduler noise
/// without a full sampling framework).
fn measure(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// An ~11 KB nested-multipart message: text + HTML alternative and a PDF
/// attachment — the shape the §IV-B parser sees per reported email.
fn mime_fixture() -> String {
    let para =
        "Please review the attached invoice and remit payment to the account below.\r\n"
            .repeat(30);
    let html_body = format!(
        "<html><body>{}</body></html>",
        "<p>Remit to <a href=\"https://evil-site.example/pay\">portal</a></p>".repeat(40)
    );
    let pdf = vec![0x25u8; 4096];
    let mut b = MessageBuilder::new();
    b.from("billing@partner.example")
        .to("victim@corp.example")
        .subject("Past due balance")
        .text_body(&para)
        .html_body(&html_body)
        .attach("invoice.pdf", "application/pdf", &pdf)
        .boundary_seed(7);
    b.build()
}

/// A ~10 KB landing page: 60 link rows plus the script/style/entity
/// constructs that exercise the tokenizer's raw-text and attribute paths.
fn html_fixture() -> String {
    let mut s = String::from(
        "<!DOCTYPE html><html><head><title>Corp Portal</title>\
         <style>body { color: #333; }</style></head><body>",
    );
    s.push_str("<header class=\"brand\" style=\"background-color:#003cb4\">Corp Portal</header>");
    for i in 0..60 {
        s.push_str(&format!(
            "<div class=row id=r{i}><p>Document {i} &amp; attachments</p>\
             <a href=\"https://corp.example/doc?id={i}&amp;v=2\" target=_blank>open</a></div>"
        ));
    }
    s.push_str("<script>if (a < b) { track('</scr'+'ipt>'); }</script>");
    s.push_str(
        "<form action=/collect><input type=text name=u><input type=password name=p>\
         <input type=submit value=\"Sign in\"></form></body></html>",
    );
    s
}

/// The DOM-based extraction the token scan replaced: materialize, then walk
/// three times.
fn via_dom(html: &str) -> (Vec<String>, Option<String>, Vec<String>) {
    let doc = Document::parse(html);
    (
        doc.anchor_urls(),
        doc.meta_refresh_url(),
        doc.inline_scripts(),
    )
}

/// A mostly-blank artifact image with two text lines and light sensor
/// noise — the sparse-ink shape of rendered screenshots and QR frames.
fn image_fixture() -> Bitmap {
    let mut img = Bitmap::new(256, 160, Rgb::WHITE);
    img.draw_text(8, 8, "YOUR MAILBOX IS FULL", 2, Rgb::BLACK);
    img.draw_text(8, 40, "HTTPS://EVIL-SITE.EXAMPLE/DHFYWFH", 1, Rgb::BLACK);
    img.add_noise(12, 40)
}

/// The pre-`InkMask` blank-band sweep: for every vertical offset, find the
/// leftmost ink pixel in a glyph-high band by column-major bool scanning
/// (verbatim from the old `ocr::recognize_band` prelude).
fn sweep_bool(mask: &[bool], width: usize, height: usize) -> usize {
    let mut hits = 0usize;
    let mut y = 0usize;
    while y + BAND_H <= height {
        let mut left = None;
        'outer: for x in 0..width {
            for yy in y..y + BAND_H {
                if mask[yy * width + x] {
                    left = Some(x);
                    break 'outer;
                }
            }
        }
        hits += left.is_some() as usize;
        y += 1;
    }
    hits
}

/// The same sweep over the word-packed mask.
fn sweep_words(ink: &InkMask) -> usize {
    let mut hits = 0usize;
    let mut y = 0usize;
    while y + BAND_H <= ink.height() {
        hits += ink.leftmost_ink_in_band(y, y + BAND_H).is_some() as usize;
        y += 1;
    }
    hits
}

struct Ratio {
    name: &'static str,
    ns_before: f64,
    ns_after: f64,
    allocs_per_iter: u64,
}

impl Ratio {
    fn ratio(&self) -> f64 {
        self.ns_before / self.ns_after
    }

    fn report(&self) -> cb_json::Value {
        cb_json::json!({
            "name": self.name,
            "ns_before": self.ns_before,
            "ns_after": self.ns_after,
            "ratio_before_over_after": self.ratio(),
            "allocs_per_iter": self.allocs_per_iter,
            "identical": true,
        })
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let gate = argv.iter().any(|a| a == "--gate");
    let merge_path = argv
        .iter()
        .position(|a| a == "--merge")
        .and_then(|i| argv.get(i + 1))
        .cloned();
    let iters: u64 = if smoke { 30 } else { 2000 };
    eprintln!("substrate_micro: {iters} iters/arm (min of 3 batches)");

    let mut arms: Vec<Ratio> = Vec::new();

    // ---- mime_parse: owned char-walk parser vs borrowed-span parser.
    let raw = mime_fixture();
    let before = cb_email::reference::parse_message(&raw).expect("reference parse");
    let after = MimeEntity::parse(&raw).expect("borrowed parse");
    assert_eq!(before, after, "mime parsers must agree on the fixture");
    let ns_before = measure(iters, || {
        std::hint::black_box(
            cb_email::reference::parse_message(std::hint::black_box(&raw)).unwrap(),
        );
    });
    let ns_after = measure(iters, || {
        std::hint::black_box(MimeEntity::parse(std::hint::black_box(&raw)).unwrap());
    });
    // Allocations of one owned parse: the tree's header maps, child
    // vectors and decoded leaf bodies.
    let (_, parse_allocs) = allocations_during(|| {
        std::hint::black_box(MimeEntity::parse(&raw).expect("borrowed parse"));
    });
    arms.push(Ratio {
        name: "mime_parse",
        ns_before,
        ns_after,
        allocs_per_iter: parse_allocs,
    });

    // ---- html_tokenize: DOM materialization + three walks vs one
    // token-stream pass.
    let page = html_fixture();
    let (anchors, refresh, scripts) = via_dom(&page);
    let scan = PageScan::of(&page);
    assert_eq!(
        (scan.anchor_hrefs, scan.meta_refresh, scan.inline_scripts),
        (anchors, refresh, scripts),
        "token scan must agree with the DOM walks"
    );
    let ns_before = measure(iters, || {
        std::hint::black_box(via_dom(std::hint::black_box(&page)));
    });
    let ns_after = measure(iters, || {
        std::hint::black_box(PageScan::of(std::hint::black_box(&page)));
    });
    // Draining the raw token stream itself is allocation-free.
    let (_, tok_allocs) = allocations_during(|| {
        let mut n = 0usize;
        for t in cb_web::html::tokenize(&page) {
            n += matches!(t, cb_web::html::Token::Open(_)) as usize;
        }
        std::hint::black_box(n);
    });
    assert_eq!(tok_allocs, 0, "token drain must not allocate");
    arms.push(Ratio {
        name: "html_tokenize",
        ns_before,
        ns_after,
        allocs_per_iter: tok_allocs,
    });

    // ---- binarize: build the ink mask and run the OCR blank-band sweep
    // over it, bool-slice vs word-packed.
    let img = image_fixture();
    let (w, h) = (img.width(), img.height());
    let hits_before = img.with_ink_mask(INK_THRESHOLD, |m| sweep_bool(m, w, h));
    let hits_after = img.with_ink_words(INK_THRESHOLD, sweep_words);
    assert_eq!(hits_before, hits_after, "band sweeps must agree");
    let count_before = img.with_ink_mask(INK_THRESHOLD, |m| m.iter().filter(|&&b| b).count());
    let count_after = img.with_ink_words(INK_THRESHOLD, |m| m.count_ink());
    assert_eq!(count_before, count_after, "ink censuses must agree");
    let ns_before = measure(iters, || {
        std::hint::black_box(img.with_ink_mask(INK_THRESHOLD, |m| sweep_bool(m, w, h)));
    });
    let ns_after = measure(iters, || {
        std::hint::black_box(img.with_ink_words(INK_THRESHOLD, sweep_words));
    });
    let (_, mask_allocs) = allocations_during(|| {
        std::hint::black_box(img.with_ink_words(INK_THRESHOLD, sweep_words));
    });
    assert_eq!(mask_allocs, 0, "warm mask reuse must not allocate");
    arms.push(Ratio {
        name: "binarize",
        ns_before,
        ns_after,
        allocs_per_iter: mask_allocs,
    });

    // ---- hamming: bool XOR walk vs popcount over packed words.
    let img2 = img.add_noise(200, 120);
    let mut scratch = Vec::new();
    let mut mask_a = InkMask::new();
    let mut mask_b = InkMask::new();
    mask_a.fill_from(&img, INK_THRESHOLD, &mut scratch);
    mask_b.fill_from(&img2, INK_THRESHOLD, &mut scratch);
    let bools_a: Vec<bool> = img.pixels().iter().map(|p| p.luma() < INK_THRESHOLD).collect();
    let bools_b: Vec<bool> = img2.pixels().iter().map(|p| p.luma() < INK_THRESHOLD).collect();
    let naive: usize = bools_a.iter().zip(&bools_b).filter(|(x, y)| x != y).count();
    assert_eq!(mask_a.hamming(&mask_b), naive, "hamming kernels must agree");
    assert!(naive > 0, "fixture masks must actually differ");
    let ns_before = measure(iters, || {
        std::hint::black_box(bools_a.iter().zip(&bools_b).filter(|(x, y)| x != y).count());
    });
    let ns_after = measure(iters, || {
        std::hint::black_box(mask_a.hamming(&mask_b));
    });
    let (_, ham_allocs) = allocations_during(|| {
        std::hint::black_box(mask_a.hamming(&mask_b));
    });
    assert_eq!(ham_allocs, 0, "hamming must not allocate");
    arms.push(Ratio {
        name: "hamming",
        ns_before,
        ns_after,
        allocs_per_iter: ham_allocs,
    });

    // ---- qr_decode: absolute time of the full image → payload path (no
    // before-arm; the kernel change is inside the shared binarize step).
    let payload = b"https://evil-site.example/dhfYWfH";
    let sym = cb_qr::encode_bytes(payload, cb_qr::EcLevel::M).expect("encode fixture QR");
    let qr_img = cb_artifacts::qrimage::render(sym.matrix(), 2);
    let decoded_ok =
        cb_artifacts::qrimage::decode_from_image(&qr_img).as_deref() == Some(payload.as_slice());
    assert!(decoded_ok, "QR fixture must round-trip");
    let qr_iters = iters.clamp(1, 400);
    let ns_qr = measure(qr_iters, || {
        std::hint::black_box(
            cb_artifacts::qrimage::decode_from_image(std::hint::black_box(&qr_img)).unwrap(),
        );
    });

    for arm in &arms {
        eprintln!(
            "  {:14} before {:9.0}ns  after {:9.0}ns  ratio {:5.2}x  allocs/iter {}",
            arm.name,
            arm.ns_before,
            arm.ns_after,
            arm.ratio(),
            arm.allocs_per_iter,
        );
    }
    eprintln!("  {:14} {:9.0}ns  decoded ok", "qr_decode", ns_qr);

    if gate {
        for arm in &arms {
            assert!(
                arm.ratio() >= 1.5,
                "{}: ratio {:.2} below the 1.5x gate",
                arm.name,
                arm.ratio()
            );
        }
        eprintln!("gate: all ratios >= 1.5x");
    }

    let mut reports: Vec<cb_json::Value> = arms.iter().map(Ratio::report).collect();
    reports.push(cb_json::json!({
        "name": "qr_decode",
        "ns": ns_qr,
        "decoded_ok": decoded_ok,
    }));
    let micro = cb_json::json!({
        "iters": iters,
        "arms": reports,
    });

    match merge_path {
        Some(path) => {
            let text = std::fs::read_to_string(&path).expect("read merge target");
            let mut doc: cb_json::Value =
                cb_json::from_str(&text).expect("parse merge target");
            doc.as_object_mut()
                .expect("merge target must be a JSON object")
                .insert("micro_arms".to_string(), micro);
            std::fs::write(&path, format!("{doc:#}\n")).expect("write merge target");
            eprintln!("merged micro_arms into {path}");
        }
        None => println!("{micro:#}"),
    }
}
