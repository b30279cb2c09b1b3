//! Zero-allocation contracts of the byte-level hot paths, counted rather
//! than trusted from inspection: draining the HTML token stream, reusing
//! the warm thread-local ink mask for the OCR blank-band sweep, and
//! `InkMask::hamming`.
//!
//! This binary registers [`CountingAlloc`] as its global allocator, so
//! every `alloc`/`alloc_zeroed`/`realloc` on a test's thread is counted.
//! Frees are not counted: the claim is about acquisition, and counting
//! both would bill a realloc twice. The counter is thread-local, so tests
//! running in parallel never see each other's allocations.

use cb_artifacts::{Bitmap, InkMask, Rgb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System-allocator wrapper that counts acquisitions per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // try_with: the allocator may be called during TLS teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return how many allocator acquisitions it made on this
/// thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Glyph height of the built-in 5×7 font: the OCR band the sweep probes.
const BAND_H: usize = 7;

/// Binarization threshold of the ink masks.
const INK_THRESHOLD: u8 = 128;

/// A ~10 KB landing page: 60 link rows plus the script, style and entity
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

/// A mostly blank artifact image with two text lines and light sensor
/// noise: the sparse-ink shape of rendered screenshots and QR frames.
fn image_fixture() -> Bitmap {
    let mut img = Bitmap::new(256, 160, Rgb::WHITE);
    img.draw_text(8, 8, "YOUR MAILBOX IS FULL", 2, Rgb::BLACK);
    img.draw_text(8, 40, "HTTPS://EVIL-SITE.EXAMPLE/DHFYWFH", 1, Rgb::BLACK);
    img.add_noise(12, 40)
}

/// The OCR blank-band sweep over the word-packed mask: for every vertical
/// offset, whether a glyph-high band holds any ink.
fn sweep_words(ink: &InkMask) -> usize {
    let mut hits = 0usize;
    let mut y = 0usize;
    while y + BAND_H <= ink.height() {
        hits += ink.leftmost_ink_in_band(y, y + BAND_H).is_some() as usize;
        y += 1;
    }
    hits
}

#[test]
fn counting_allocator_sees_allocations() {
    let allocs = allocations_during(|| {
        std::hint::black_box(vec![0u8; 64]);
    });
    assert!(allocs >= 1, "the counter must be live in this binary");
}

#[test]
fn html_token_drain_does_not_allocate() {
    let page = html_fixture();
    let mut opens = 0usize;
    let allocs = allocations_during(|| {
        for t in cb_web::html::tokenize(&page) {
            opens += matches!(t, cb_web::html::Token::Open(_)) as usize;
        }
    });
    assert!(opens > 60, "the fixture has every row's tags: {opens}");
    assert_eq!(allocs, 0, "token drain must not allocate");
}

#[test]
fn warm_ink_mask_reuse_does_not_allocate() {
    let img = image_fixture();
    // The first call on this thread sizes the thread-local buffers.
    let cold = img.with_ink_words(INK_THRESHOLD, sweep_words);
    assert!(cold > 0, "the fixture has ink");
    let mut warm = 0usize;
    let allocs = allocations_during(|| {
        warm = img.with_ink_words(INK_THRESHOLD, sweep_words);
    });
    assert_eq!(warm, cold);
    assert_eq!(allocs, 0, "warm mask reuse must not allocate");
}

#[test]
fn ink_mask_hamming_does_not_allocate() {
    let img = image_fixture();
    let noisy = img.add_noise(200, 120);
    let mut scratch = Vec::new();
    let (mut a, mut b) = (InkMask::new(), InkMask::new());
    a.fill_from(&img, INK_THRESHOLD, &mut scratch);
    b.fill_from(&noisy, INK_THRESHOLD, &mut scratch);
    let mut distance = 0usize;
    let allocs = allocations_during(|| {
        distance = a.hamming(&b);
    });
    assert!(distance > 0, "the fixture masks must differ");
    assert_eq!(allocs, 0, "hamming must not allocate");
}
