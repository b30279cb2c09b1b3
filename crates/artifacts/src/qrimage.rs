//! Rendering QR symbols into bitmaps and detecting/sampling them back.
//!
//! The attacker side embeds QR codes in message images ("quishing"); the
//! pipeline side must find the symbol in a screenshot or inline image,
//! recover the module grid, and hand it to [`cb_qr::decode_matrix`]. The
//! detector assumes an upright symbol at uniform scale — the situation in
//! email images — and locates it by the finder pattern's 1:1:3:1:1
//! run-length signature, exactly how real detectors seed their search.

use crate::bitmap::{Bitmap, Rgb};
use crate::inkmask::InkMask;
use cb_qr::{tables, QrMatrix};

/// Quiet-zone width in modules mandated by the spec.
pub const QUIET_ZONE: usize = 4;

/// Render `matrix` at `module_px` pixels per module with a 4-module quiet
/// zone, optionally offset inside a larger canvas.
///
/// # Panics
///
/// Panics if `module_px` is zero.
pub fn render(matrix: &QrMatrix, module_px: usize) -> Bitmap {
    assert!(module_px > 0, "module_px must be nonzero");
    let n = matrix.size();
    let total = (n + 2 * QUIET_ZONE) * module_px;
    let mut img = Bitmap::new(total, total, Rgb::WHITE);
    draw_at(
        &mut img,
        matrix,
        QUIET_ZONE * module_px,
        QUIET_ZONE * module_px,
        module_px,
    );
    img
}

/// Draw `matrix` into an existing image at pixel offset `(x0, y0)`.
pub fn draw_at(img: &mut Bitmap, matrix: &QrMatrix, x0: usize, y0: usize, module_px: usize) {
    let n = matrix.size();
    for r in 0..n {
        for c in 0..n {
            if matrix.get(r, c) {
                img.fill_rect(
                    x0 + c * module_px,
                    y0 + r * module_px,
                    module_px,
                    module_px,
                    Rgb::BLACK,
                );
            }
        }
    }
}

/// Locate and sample a QR symbol in `img`.
///
/// Returns the reconstructed [`QrMatrix`] (with its version inferred from
/// the sampled size), or `None` if no plausible symbol is found.
pub fn detect(img: &Bitmap) -> Option<QrMatrix> {
    // Binarize into the shared thread-local word-packed mask (no per-image
    // allocation; the OCR pass over the same image reuses the buffer).
    img.with_ink_words(128, |dark| {
        let (w, h) = (img.width(), img.height());

        // Find a finder pattern via horizontal 1:1:3:1:1 run-length scan.
        let (cx, cy, module_px) = find_finder(dark)?;

        // The finder centre sits 3.5 modules in from the symbol corner.
        let x0 = (cx as isize - (3.5 * module_px as f64) as isize).max(0) as usize;
        let y0 = (cy as isize - (3.5 * module_px as f64) as isize).max(0) as usize;

        // Try every supported version: sample the grid and check the timing
        // pattern for consistency.
        for version in (1..=tables::MAX_VERSION).rev() {
            let n = tables::symbol_size(version);
            if x0 + n * module_px > w || y0 + n * module_px > h {
                continue;
            }
            if let Some(m) = sample_grid(dark, x0, y0, module_px, version) {
                return Some(m);
            }
        }
        None
    })
}

/// Render→detect convenience used in tests and the pipeline: decode the
/// payload of any QR symbol present in `img`.
pub fn decode_from_image(img: &Bitmap) -> Option<Vec<u8>> {
    let m = detect(img)?;
    cb_qr::decode_matrix(&m).ok()
}

/// Scan rows for the finder signature; returns (center_x, center_y,
/// module_px).
///
/// Rows are walked as runs via [`InkMask::next_transition`] — run
/// boundaries come from word scans (64 pixels per load) and a five-slot
/// ring buffer replaces the per-row `Vec` of runs the bool-mask
/// implementation materialized.
fn find_finder(dark: &InkMask) -> Option<(usize, usize, usize)> {
    let (w, h) = (dark.width(), dark.height());
    for y in 0..h {
        // last five runs, oldest first: (value, start, len)
        let mut runs = [(false, 0usize, 0usize); 5];
        let mut filled = 0usize;
        let mut x = 0usize;
        while x < w {
            let v = dark.get(x, y);
            let end = dark.next_transition(y, x, v);
            runs.rotate_left(1);
            runs[4] = (v, x, end - x);
            filled += 1;
            x = end;
            if filled < 5 {
                continue;
            }
            // look for dark-light-dark-light-dark with 1:1:3:1:1
            if !(runs[0].0 && !runs[1].0 && runs[2].0 && !runs[3].0 && runs[4].0) {
                continue;
            }
            let unit = runs[0].2;
            if unit == 0 {
                continue;
            }
            let ratios_ok = runs[1].2 == unit
                && runs[2].2 == 3 * unit
                && runs[3].2 == unit
                && runs[4].2 == unit;
            if !ratios_ok {
                continue;
            }
            let cx = runs[2].1 + runs[2].2 / 2;
            // verify vertically at cx: same signature centred at y
            if verify_vertical(dark, cx, y, unit) {
                // centre y: middle of the 3-unit vertical core
                return Some((cx, y, unit));
            }
        }
    }
    None
}

/// Check the vertical 1:1:3:1:1 signature through (cx, y).
fn verify_vertical(dark: &InkMask, cx: usize, y: usize, unit: usize) -> bool {
    // Expect dark for 3 units around y (the core), then light 1, dark 1.
    let get = |yy: isize| -> Option<bool> {
        if yy < 0 || yy as usize >= dark.height() {
            None
        } else {
            Some(dark.get(cx, yy as usize))
        }
    };
    let u = unit as isize;
    let y = y as isize;
    // sample centre of each band above and below
    let core = get(y) == Some(true);
    let above_light = get(y - 2 * u) == Some(false);
    let above_dark = get(y - 3 * u) == Some(true);
    let below_light = get(y + 2 * u) == Some(false);
    let below_dark = get(y + 3 * u) == Some(true);
    core && above_light && above_dark && below_light && below_dark
}

/// Sample an n×n grid and validate its timing pattern; returns the matrix if
/// plausible.
fn sample_grid(
    dark: &InkMask,
    x0: usize,
    y0: usize,
    module_px: usize,
    version: usize,
) -> Option<QrMatrix> {
    let n = tables::symbol_size(version);
    let mut m = QrMatrix::new(version);
    for r in 0..n {
        for c in 0..n {
            let px = x0 + c * module_px + module_px / 2;
            let py = y0 + r * module_px + module_px / 2;
            m.set(r, c, dark.get(px, py));
        }
    }
    // Validate: horizontal+vertical timing patterns must alternate, and the
    // three finder cores must be present.
    for i in 8..n - 8 {
        if m.get(6, i) != (i % 2 == 0) || m.get(i, 6) != (i % 2 == 0) {
            return None;
        }
    }
    for &(r, c) in &[(3usize, 3usize), (3, n - 4), (n - 4, 3)] {
        if !m.get(r, c) {
            return None;
        }
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_qr::{encode_bytes, EcLevel};

    #[test]
    fn render_detect_decode_round_trip() {
        let payload = b"https://evil-site.example/dhfYWfH";
        let sym = encode_bytes(payload, EcLevel::M).unwrap();
        for module_px in [1usize, 2, 4] {
            let img = render(sym.matrix(), module_px);
            let decoded = decode_from_image(&img).expect("detect+decode");
            assert_eq!(decoded, payload, "module_px={module_px}");
        }
    }

    #[test]
    fn offset_symbol_inside_larger_canvas() {
        let sym = encode_bytes(b"xxx https://evil-site.example/", EcLevel::M).unwrap();
        let mut canvas = Bitmap::new(300, 260, Rgb::WHITE);
        canvas.draw_text(10, 6, "SCAN TO VIEW INVOICE", 1, Rgb::BLACK);
        draw_at(&mut canvas, sym.matrix(), 60, 40, 3);
        let decoded = decode_from_image(&canvas).expect("found in canvas");
        assert_eq!(decoded, b"xxx https://evil-site.example/");
    }

    #[test]
    fn higher_versions_detected() {
        let payload = vec![b'u'; 150];
        let sym = encode_bytes(&payload, EcLevel::L).unwrap();
        assert!(sym.version() >= 7);
        let img = render(sym.matrix(), 2);
        assert_eq!(decode_from_image(&img).unwrap(), payload);
    }

    #[test]
    fn blank_image_detects_nothing() {
        let img = Bitmap::new(100, 100, Rgb::WHITE);
        assert!(detect(&img).is_none());
    }

    #[test]
    fn text_only_image_detects_nothing() {
        let mut img = Bitmap::new(240, 30, Rgb::WHITE);
        img.draw_text(2, 2, "NO CODE HERE JUST WORDS", 1, Rgb::BLACK);
        assert!(detect(&img).is_none());
    }

    #[test]
    fn speckled_symbol_still_decodes() {
        // Error correction absorbs sparse speckle noise.
        let payload = b"https://resilient.example/";
        let sym = encode_bytes(payload, EcLevel::H).unwrap();
        let img = render(sym.matrix(), 4).add_noise(5, 12);
        if let Some(d) = decode_from_image(&img) {
            assert_eq!(d, payload);
        }
        // (If noise happens to hit the timing pattern, detection may fail —
        // that is honest behaviour, not a bug; the clean-path test above is
        // the correctness gate.)
    }

    #[test]
    fn quiet_zone_size_respected() {
        let sym = encode_bytes(b"q", EcLevel::L).unwrap();
        let img = render(sym.matrix(), 2);
        assert_eq!(img.width(), (21 + 8) * 2);
        // corner pixel is white quiet zone
        assert_eq!(img.get(0, 0), Rgb::WHITE);
    }
}
