//! RGB raster images.
//!
//! The analysis pipeline screenshots every loaded page and scans inline
//! images; the attacker side renders QR codes and lure graphics. [`Bitmap`]
//! is the shared raster: 8-bit RGB, with the operations both sides need —
//! fills, rectangles, text (via [`crate::font`]), grayscale conversion,
//! nearest-neighbour scaling, cropping, deterministic noise, and the CSS
//! `hue-rotate` colour filter the paper saw injected into 167 phishing pages
//! to defeat visual-similarity checks.

use std::fmt;

/// An 8-bit RGB colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Pure white.
    pub const WHITE: Rgb = Rgb::new(255, 255, 255);
    /// Pure black.
    pub const BLACK: Rgb = Rgb::new(0, 0, 0);

    /// Construct from channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Rgb {
        Rgb { r, g, b }
    }

    /// Rec. 601 luma (0–255).
    pub fn luma(self) -> u8 {
        ((self.r as u32 * 299 + self.g as u32 * 587 + self.b as u32 * 114) / 1000) as u8
    }

    /// Rotate the hue by `degrees` using the standard feColorMatrix
    /// approximation the CSS `hue-rotate()` filter specifies.
    pub fn hue_rotate(self, degrees: f64) -> Rgb {
        let rad = degrees.to_radians();
        let (sin, cos) = (rad.sin(), rad.cos());
        // Coefficients from the SVG/CSS filter-effects spec.
        let m = [
            [
                0.213 + cos * 0.787 - sin * 0.213,
                0.715 - cos * 0.715 - sin * 0.715,
                0.072 - cos * 0.072 + sin * 0.928,
            ],
            [
                0.213 - cos * 0.213 + sin * 0.143,
                0.715 + cos * 0.285 + sin * 0.140,
                0.072 - cos * 0.072 - sin * 0.283,
            ],
            [
                0.213 - cos * 0.213 - sin * 0.787,
                0.715 - cos * 0.715 + sin * 0.715,
                0.072 + cos * 0.928 + sin * 0.072,
            ],
        ];
        let apply = |row: [f64; 3]| {
            (row[0] * self.r as f64 + row[1] * self.g as f64 + row[2] * self.b as f64)
                .clamp(0.0, 255.0) as u8
        };
        Rgb::new(apply(m[0]), apply(m[1]), apply(m[2]))
    }
}

/// An owned RGB image.
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    pixels: Vec<Rgb>,
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap({}x{})", self.width, self.height)
    }
}

impl Bitmap {
    /// A `width`×`height` bitmap filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, fill: Rgb) -> Bitmap {
        assert!(width > 0 && height > 0, "bitmap dimensions must be nonzero");
        Bitmap {
            width,
            height,
            pixels: vec![fill; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> Rgb {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Set pixel at `(x, y)`; out-of-bounds writes are ignored (clipping).
    pub fn set(&mut self, x: usize, y: usize, c: Rgb) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = c;
        }
    }

    /// Fill the axis-aligned rectangle with corner `(x, y)` and the given
    /// size (clipped to the image).
    pub fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, c: Rgb) {
        for yy in y..(y + h).min(self.height) {
            for xx in x..(x + w).min(self.width) {
                self.pixels[yy * self.width + xx] = c;
            }
        }
    }

    /// Grayscale copy (each channel set to luma).
    pub fn to_gray(&self) -> Bitmap {
        let mut out = self.clone();
        for p in &mut out.pixels {
            let l = p.luma();
            *p = Rgb::new(l, l, l);
        }
        out
    }

    /// All pixels, row-major. Borrow-only access for hot paths that would
    /// otherwise allocate a per-call copy (binarization, hashing).
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// Luma values row-major, for hashing.
    pub fn luma_values(&self) -> Vec<u8> {
        self.pixels.iter().map(|p| p.luma()).collect()
    }

    /// Run `f` over this image's thresholded ink mask (`luma < threshold`,
    /// row-major). The mask is built in a thread-local scratch buffer
    /// reused across calls, so repeated binarization (OCR scale probing, QR
    /// detection) stops allocating per image. Nested calls from within `f`
    /// fall back to a fresh buffer rather than aliasing the scratch.
    pub fn with_ink_mask<R>(&self, threshold: u8, f: impl FnOnce(&[bool]) -> R) -> R {
        use std::cell::RefCell;
        thread_local! {
            static INK_SCRATCH: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
        }
        INK_SCRATCH.with(|cell| {
            // Take the buffer out of the cell: a nested with_ink_mask call
            // then sees an empty scratch and allocates its own.
            let mut mask = cell.take();
            mask.clear();
            mask.extend(self.pixels.iter().map(|p| p.luma() < threshold));
            let out = f(&mask);
            *cell.borrow_mut() = mask;
            out
        })
    }

    /// Run `f` over this image's word-packed ink mask (`luma < threshold`,
    /// see [`crate::inkmask::InkMask`]). Like [`Bitmap::with_ink_mask`] the
    /// mask and its luma scratch live in thread-local buffers reused across
    /// calls; nested calls from within `f` fall back to fresh buffers. The
    /// analysis kernels (OCR, QR detection) run on this packed form — the
    /// bool-slice variant remains as the reference representation.
    pub fn with_ink_words<R>(
        &self,
        threshold: u8,
        f: impl FnOnce(&crate::inkmask::InkMask) -> R,
    ) -> R {
        use crate::inkmask::InkMask;
        use std::cell::RefCell;
        thread_local! {
            static WORD_SCRATCH: RefCell<(InkMask, Vec<u8>)> =
                const { RefCell::new((InkMask::new(), Vec::new())) };
        }
        WORD_SCRATCH.with(|cell| {
            // Take the buffers out of the cell: a nested call then sees
            // empty scratch and allocates its own.
            let (mut mask, mut luma) = cell.take();
            mask.fill_from(self, threshold, &mut luma);
            let out = f(&mask);
            *cell.borrow_mut() = (mask, luma);
            out
        })
    }

    /// Nearest-neighbour resample to `w`×`h`.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn scale_to(&self, w: usize, h: usize) -> Bitmap {
        assert!(w > 0 && h > 0, "scale target must be nonzero");
        let mut out = Bitmap::new(w, h, Rgb::WHITE);
        for y in 0..h {
            for x in 0..w {
                let sx = x * self.width / w;
                let sy = y * self.height / h;
                out.pixels[y * w + x] = self.pixels[sy * self.width + sx];
            }
        }
        out
    }

    /// Crop to the rectangle (clipped to the image).
    ///
    /// # Panics
    ///
    /// Panics if the clipped rectangle is empty.
    pub fn crop(&self, x: usize, y: usize, w: usize, h: usize) -> Bitmap {
        let w = w.min(self.width.saturating_sub(x));
        let h = h.min(self.height.saturating_sub(y));
        assert!(w > 0 && h > 0, "crop rectangle is empty");
        let mut out = Bitmap::new(w, h, Rgb::WHITE);
        for yy in 0..h {
            for xx in 0..w {
                out.pixels[yy * w + xx] = self.pixels[(y + yy) * self.width + (x + xx)];
            }
        }
        out
    }

    /// Apply the CSS `hue-rotate(degrees)` filter to every pixel — the
    /// §V-C2(d) evasion trick.
    pub fn hue_rotate(&self, degrees: f64) -> Bitmap {
        let mut out = self.clone();
        for p in &mut out.pixels {
            *p = p.hue_rotate(degrees);
        }
        out
    }

    /// Deterministically speckle `count` pixels using a simple LCG from
    /// `seed` (simulates the "injected noise" on phishing screenshots).
    pub fn add_noise(&self, seed: u64, count: usize) -> Bitmap {
        let mut out = self.clone();
        let mut state = seed | 1;
        for _ in 0..count {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) as usize % self.width;
            let y = (state >> 13) as usize % self.height;
            let v = (state >> 5) as u8;
            out.set(x, y, Rgb::new(v, v.wrapping_add(64), v.wrapping_add(128)));
        }
        out
    }

    /// Draw text at `(x, y)` using the built-in 5×7 font at integer `scale`.
    /// Returns the x coordinate after the last glyph.
    pub fn draw_text(&mut self, x: usize, y: usize, text: &str, scale: usize, c: Rgb) -> usize {
        crate::font::draw_text(self, x, y, text, scale, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_get() {
        let mut b = Bitmap::new(10, 5, Rgb::WHITE);
        b.fill_rect(2, 1, 3, 2, Rgb::BLACK);
        assert_eq!(b.get(2, 1), Rgb::BLACK);
        assert_eq!(b.get(4, 2), Rgb::BLACK);
        assert_eq!(b.get(5, 1), Rgb::WHITE);
        assert_eq!(b.get(2, 3), Rgb::WHITE);
    }

    #[test]
    fn fill_rect_clips() {
        let mut b = Bitmap::new(4, 4, Rgb::WHITE);
        b.fill_rect(2, 2, 100, 100, Rgb::BLACK);
        assert_eq!(b.get(3, 3), Rgb::BLACK);
        assert_eq!(b.get(1, 1), Rgb::WHITE);
    }

    #[test]
    fn luma_weights() {
        assert_eq!(Rgb::WHITE.luma(), 255);
        assert_eq!(Rgb::BLACK.luma(), 0);
        assert!(Rgb::new(0, 255, 0).luma() > Rgb::new(255, 0, 0).luma());
        assert!(Rgb::new(255, 0, 0).luma() > Rgb::new(0, 0, 255).luma());
    }

    #[test]
    fn hue_rotate_zero_is_near_identity() {
        let c = Rgb::new(120, 80, 200);
        let r = c.hue_rotate(0.0);
        assert!((r.r as i32 - 120).abs() <= 1);
        assert!((r.g as i32 - 80).abs() <= 1);
        assert!((r.b as i32 - 200).abs() <= 1);
    }

    #[test]
    fn hue_rotate_4deg_changes_color_but_barely_luma() {
        // The paper's trick: hue-rotate(4deg) changes pixel colours yet the
        // grayscale rendering is nearly unchanged — which is why pHash/dHash
        // survive it.
        let c = Rgb::new(180, 40, 90);
        let r = c.hue_rotate(4.0);
        assert_ne!(c, r);
        assert!((c.luma() as i32 - r.luma() as i32).abs() <= 3);
    }

    #[test]
    fn hue_rotate_preserves_gray() {
        let g = Rgb::new(128, 128, 128);
        let r = g.hue_rotate(90.0);
        for ch in [r.r, r.g, r.b] {
            assert!((ch as i32 - 128).abs() <= 2, "{r:?}");
        }
    }

    #[test]
    fn scale_preserves_blocks() {
        let mut b = Bitmap::new(2, 2, Rgb::WHITE);
        b.set(0, 0, Rgb::BLACK);
        let big = b.scale_to(4, 4);
        assert_eq!(big.get(0, 0), Rgb::BLACK);
        assert_eq!(big.get(1, 1), Rgb::BLACK);
        assert_eq!(big.get(2, 2), Rgb::WHITE);
        let back = big.scale_to(2, 2);
        assert_eq!(back, b);
    }

    #[test]
    fn crop_extracts_region() {
        let mut b = Bitmap::new(6, 6, Rgb::WHITE);
        b.set(3, 2, Rgb::BLACK);
        let c = b.crop(2, 1, 3, 3);
        assert_eq!(c.width(), 3);
        assert_eq!(c.get(1, 1), Rgb::BLACK);
    }

    #[test]
    fn noise_is_deterministic() {
        let b = Bitmap::new(20, 20, Rgb::WHITE);
        assert_eq!(b.add_noise(7, 30), b.add_noise(7, 30));
        assert_ne!(b.add_noise(7, 30), b.add_noise(8, 30));
    }

    #[test]
    fn gray_conversion_flattens_channels() {
        let mut b = Bitmap::new(2, 1, Rgb::new(200, 10, 50));
        b.set(1, 0, Rgb::new(0, 255, 0));
        let g = b.to_gray();
        for y in 0..1 {
            for x in 0..2 {
                let p = g.get(x, y);
                assert_eq!(p.r, p.g);
                assert_eq!(p.g, p.b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        Bitmap::new(0, 5, Rgb::WHITE);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        Bitmap::new(2, 2, Rgb::WHITE).get(2, 0);
    }
}

/// Serialization: the `CBXBMP1` container (magic, dimensions, raw RGB).
impl Bitmap {
    /// Serialize to the `CBXBMP1` byte format (magic + u32 width + u32
    /// height, big-endian, then row-major RGB triples).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; 15 + self.pixels.len() * 3];
        let (header, body) = out.split_at_mut(15);
        header[..7].copy_from_slice(b"CBXBMP1");
        header[7..11].copy_from_slice(&(self.width as u32).to_be_bytes());
        header[11..].copy_from_slice(&(self.height as u32).to_be_bytes());
        for (dst, p) in body.chunks_exact_mut(3).zip(&self.pixels) {
            dst.copy_from_slice(&[p.r, p.g, p.b]);
        }
        out
    }

    /// Parse a `CBXBMP1` byte stream.
    ///
    /// Returns `None` on bad magic, truncated data, or zero dimensions.
    pub fn from_bytes(data: &[u8]) -> Option<Bitmap> {
        let rest = data.strip_prefix(b"CBXBMP1")?;
        if rest.len() < 8 {
            return None;
        }
        let width = u32::from_be_bytes(rest[0..4].try_into().ok()?) as usize;
        let height = u32::from_be_bytes(rest[4..8].try_into().ok()?) as usize;
        if width == 0 || height == 0 {
            return None;
        }
        let body = &rest[8..];
        if body.len() < width * height * 3 {
            return None;
        }
        let mut img = Bitmap::new(width, height, Rgb::WHITE);
        for (i, px) in body.chunks_exact(3).take(width * height).enumerate() {
            img.pixels[i] = Rgb::new(px[0], px[1], px[2]);
        }
        Some(img)
    }
}

#[cfg(test)]
mod serialization_tests {
    use super::*;
    use cb_sim::prop::{bytes, check};
    use cb_sim::prop_assert_eq;

    #[test]
    fn round_trip() {
        let mut b = Bitmap::new(13, 7, Rgb::WHITE);
        b.set(3, 2, Rgb::new(10, 200, 30));
        b.set(12, 6, Rgb::BLACK);
        let bytes = b.to_bytes();
        assert!(bytes.starts_with(b"CBXBMP1"));
        assert_eq!(Bitmap::from_bytes(&bytes).unwrap(), b);
    }

    #[test]
    fn magic_is_sniffable() {
        let b = Bitmap::new(4, 4, Rgb::WHITE);
        assert_eq!(
            crate::magic::sniff(&b.to_bytes()),
            crate::magic::FileKind::CbxBitmap
        );
    }

    #[test]
    fn to_bytes_golden() {
        let mut b = Bitmap::new(3, 2, Rgb::WHITE);
        for i in 0..6u8 {
            let v = 10 * i;
            b.set(
                usize::from(i % 3),
                usize::from(i / 3),
                Rgb::new(v + 1, v + 2, v + 3),
            );
        }
        #[rustfmt::skip]
        let golden: &[u8] = &[
            b'C', b'B', b'X', b'B', b'M', b'P', b'1',
            0, 0, 0, 3, // width, big-endian
            0, 0, 0, 2, // height, big-endian
            1, 2, 3, 11, 12, 13, 21, 22, 23, // row 0
            31, 32, 33, 41, 42, 43, 51, 52, 53, // row 1
        ];
        assert_eq!(b.to_bytes(), golden);
    }

    #[test]
    fn to_bytes_round_trips() {
        // Width, height, and the channel bytes the pixels cycle through.
        let shape = (1..24usize, 1..24usize, bytes(1..64));
        check(
            "bitmap_to_bytes_round_trips",
            128,
            shape,
            |(w, h, channels)| {
                let mut b = Bitmap::new(w, h, Rgb::WHITE);
                let mut c = channels.iter().copied().cycle();
                for y in 0..h {
                    for x in 0..w {
                        let mut next = || c.next().unwrap_or(0);
                        b.set(x, y, Rgb::new(next(), next(), next()));
                    }
                }
                let bytes = b.to_bytes();
                prop_assert_eq!(bytes.len(), 15 + 3 * w * h);
                prop_assert_eq!(Bitmap::from_bytes(&bytes), Some(b));
                Ok(())
            },
        );
    }

    #[test]
    fn blob_address_tracks_content() {
        let address = |b: &Bitmap| crate::fingerprint::fnv128(&b.to_bytes());
        let a = Bitmap::new(8, 4, Rgb::WHITE);
        let mut b = Bitmap::new(8, 4, Rgb::WHITE);
        assert_eq!(address(&a), address(&b));
        b.set(3, 1, Rgb::BLACK);
        assert_ne!(address(&a), address(&b));
        // Same pixel count, different shape.
        assert_ne!(
            address(&Bitmap::new(8, 4, Rgb::WHITE)),
            address(&Bitmap::new(4, 8, Rgb::WHITE))
        );
    }

    #[test]
    fn ink_mask_matches_luma_threshold_and_survives_nesting() {
        let mut img = Bitmap::new(3, 2, Rgb::WHITE);
        img.set(1, 0, Rgb::BLACK);
        img.set(2, 1, Rgb::new(100, 100, 100));
        let expected: Vec<bool> = img.luma_values().iter().map(|&l| l < 128).collect();
        let got = img.with_ink_mask(128, |m| m.to_vec());
        assert_eq!(got, expected);
        // A nested call over a different image must not corrupt the outer
        // mask.
        let other = Bitmap::new(2, 2, Rgb::BLACK);
        let (outer, inner) = img.with_ink_mask(128, |m| {
            let inner = other.with_ink_mask(128, |n| n.to_vec());
            (m.to_vec(), inner)
        });
        assert_eq!(outer, expected);
        assert_eq!(inner, vec![true; 4]);
    }

    #[test]
    fn word_mask_agrees_with_bool_mask() {
        let img = Bitmap::new(70, 9, Rgb::WHITE).add_noise(31, 200);
        for threshold in [0u8, 64, 128, 255] {
            let bools = img.with_ink_mask(threshold, |m| m.to_vec());
            img.with_ink_words(threshold, |words| {
                for y in 0..img.height() {
                    for x in 0..img.width() {
                        assert_eq!(
                            words.get(x, y),
                            bools[y * img.width() + x],
                            "({x},{y}) t={threshold}"
                        );
                    }
                }
            });
        }
        // nesting the two variants must not corrupt either scratch buffer
        let other = Bitmap::new(3, 3, Rgb::BLACK);
        img.with_ink_words(128, |outer| {
            let outer_ink = outer.count_ink();
            other.with_ink_words(128, |inner| assert_eq!(inner.count_ink(), 9));
            assert_eq!(outer.count_ink(), outer_ink);
        });
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Bitmap::from_bytes(b"NOPE").is_none());
        assert!(Bitmap::from_bytes(b"CBXBMP1").is_none());
        let mut truncated = Bitmap::new(10, 10, Rgb::WHITE).to_bytes();
        truncated.truncate(40);
        assert!(Bitmap::from_bytes(&truncated).is_none());
        // zero dimensions
        let mut zero = b"CBXBMP1".to_vec();
        zero.extend_from_slice(&0u32.to_be_bytes());
        zero.extend_from_slice(&5u32.to_be_bytes());
        assert!(Bitmap::from_bytes(&zero).is_none());
    }
}
