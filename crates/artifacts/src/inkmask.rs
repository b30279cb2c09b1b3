//! Word-packed binary ink masks.
//!
//! Binarization (`luma < threshold`) feeds every image-analysis kernel in
//! the pipeline — OCR line search, QR finder-pattern scans, mask diffing.
//! The original representation was `Vec<bool>`, one byte per pixel, walked
//! a pixel at a time. [`InkMask`] packs each row into `u64` words
//! (LSB-first: bit `x % 64` of word `x / 64` is pixel `x`), so kernels
//! move 64 pixels per load: leftmost-ink via `trailing_zeros`, run
//! boundaries via word scans, population via `count_ones`, and
//! thresholding itself packs 8 pixels per step with a SWAR byte compare.
//!
//! Rows are padded to a whole number of words and the padding bits are
//! kept zero as an invariant, so whole-word reductions (`count_ink`,
//! [`InkMask::hamming`]) need no edge masking.

use crate::bitmap::Bitmap;

/// A width×height binary mask with word-packed rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InkMask {
    width: usize,
    height: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

/// Pack 8 luma bytes (little-endian in `w`) into 8 mask bits: bit `i` is
/// set iff byte `i` is strictly below `threshold`.
///
/// Exact for every (byte, threshold) pair: each byte is widened into its
/// own 16-bit lane with a guard bit at position 8, so the lane-wise
/// subtraction `(0x100 + b) - t` can never borrow into the neighbouring
/// lane; bit 8 of the result is then precisely `b >= t`.
#[inline]
fn pack_below_threshold(w: u64, threshold: u8) -> u8 {
    const LANE_LO: u64 = 0x0001_0001_0001_0001;
    const EVEN_BYTES: u64 = 0x00FF_00FF_00FF_00FF;
    let guard = LANE_LO << 8;
    let t = LANE_LO.wrapping_mul(threshold as u64);
    // ge bit (lane bit 8) clear ⇔ byte < threshold
    let ge_even = ((w & EVEN_BYTES) | guard).wrapping_sub(t);
    let ge_odd = (((w >> 8) & EVEN_BYTES) | guard).wrapping_sub(t);
    let lt_even = (!ge_even >> 8) & LANE_LO; // bits at 0, 16, 32, 48
    let lt_odd = (!ge_odd >> 8) & LANE_LO;
    // compress lane bits {0,16,32,48} onto byte bits {0,2,4,6}
    let even = (lt_even | (lt_even >> 14) | (lt_even >> 28) | (lt_even >> 42)) & 0x55;
    let odd = (lt_odd | (lt_odd >> 14) | (lt_odd >> 28) | (lt_odd >> 42)) & 0x55;
    (even | (odd << 1)) as u8
}

impl InkMask {
    /// An empty 0×0 mask; fill with [`InkMask::fill_from`].
    pub const fn new() -> InkMask {
        InkMask {
            width: 0,
            height: 0,
            words_per_row: 0,
            words: Vec::new(),
        }
    }

    /// Mask width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mask height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Words per packed row (`width.div_ceil(64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds.
    pub fn row_words(&self, y: usize) -> &[u64] {
        assert!(y < self.height, "row out of bounds");
        &self.words[y * self.words_per_row..(y + 1) * self.words_per_row]
    }

    /// Bit at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> bool {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let word = self.words[y * self.words_per_row + x / 64];
        (word >> (x % 64)) & 1 != 0
    }

    /// Rebinarize this mask from `img` (`luma < threshold`), reusing both
    /// this mask's word buffer and the caller's `luma_scratch` across
    /// calls. Two passes: exact Rec. 601 luma per pixel into the byte
    /// scratch, then an 8-pixels-per-step SWAR threshold pack.
    pub fn fill_from(&mut self, img: &Bitmap, threshold: u8, luma_scratch: &mut Vec<u8>) {
        let (w, h) = (img.width(), img.height());
        self.width = w;
        self.height = h;
        self.words_per_row = w.div_ceil(64);
        self.words.clear();
        self.words.resize(h * self.words_per_row, 0);

        luma_scratch.clear();
        luma_scratch.extend(img.pixels().iter().map(|p| p.luma()));

        for y in 0..h {
            let row = &luma_scratch[y * w..(y + 1) * w];
            let out = &mut self.words[y * self.words_per_row..(y + 1) * self.words_per_row];
            // assemble each destination word fully, then store once
            let mut blocks = row.chunks_exact(64);
            let mut wi = 0usize;
            for block in blocks.by_ref() {
                let mut word = 0u64;
                for (k, lanes) in block.chunks_exact(8).enumerate() {
                    let lanes = u64::from_le_bytes(lanes.try_into().expect("8-byte chunk"));
                    word |= (pack_below_threshold(lanes, threshold) as u64) << (k * 8);
                }
                out[wi] = word;
                wi += 1;
            }
            let rem = blocks.remainder();
            if !rem.is_empty() {
                let mut word = 0u64;
                for (k, &l) in rem.iter().enumerate() {
                    word |= ((l < threshold) as u64) << k;
                }
                out[wi] = word;
            }
        }
    }

    /// Number of set bits. Whole-word popcount; exact because padding bits
    /// are zero by construction.
    pub fn count_ink(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of differing bits between two same-shape masks — the
    /// word-chunked form of a bool-slice XOR walk (64 pixels per
    /// `count_ones`).
    ///
    /// # Panics
    ///
    /// Panics if the masks have different dimensions.
    pub fn hamming(&self, other: &InkMask) -> usize {
        assert!(
            self.width == other.width && self.height == other.height,
            "mask shape mismatch"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// First `x >= from` in row `y` whose bit differs from `value`, or
    /// `width` if the run extends to the row end. This is the run-length
    /// primitive: the QR finder scan walks transitions instead of testing
    /// every pixel.
    ///
    /// # Panics
    ///
    /// Panics if `y` is out of bounds or `from > width`.
    pub fn next_transition(&self, y: usize, from: usize, value: bool) -> usize {
        assert!(y < self.height && from <= self.width, "scan out of bounds");
        if from == self.width {
            return self.width;
        }
        let row = self.row_words(y);
        let mut wi = from / 64;
        // set bits mark positions that differ from `value`
        let mut diff = if value { !row[wi] } else { row[wi] };
        diff &= !0u64 << (from % 64);
        loop {
            if diff != 0 {
                let x = wi * 64 + diff.trailing_zeros() as usize;
                return x.min(self.width);
            }
            wi += 1;
            if wi == self.words_per_row {
                return self.width;
            }
            diff = if value { !row[wi] } else { row[wi] };
        }
    }

    /// Leftmost set bit in the horizontal band of rows `y0..y1` (clamped
    /// to the mask), or `None` if the band is blank. OR-reduces the band
    /// one word-column at a time, so a blank left margin costs one load
    /// per row per 64 columns.
    pub fn leftmost_ink_in_band(&self, y0: usize, y1: usize) -> Option<usize> {
        let y1 = y1.min(self.height);
        if y0 >= y1 {
            return None;
        }
        for wi in 0..self.words_per_row {
            let mut acc = 0u64;
            for y in y0..y1 {
                acc |= self.words[y * self.words_per_row + wi];
            }
            if acc != 0 {
                return Some(wi * 64 + acc.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Rgb;

    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    #[test]
    fn swar_pack_is_exact_for_every_value_and_threshold() {
        // 256 thresholds × 256 byte values, each value probed in every lane.
        for t in 0..=255u8 {
            for v in 0..=255u8 {
                for lane in 0..8 {
                    let w = (v as u64) << (lane * 8);
                    let got = pack_below_threshold(w, t);
                    let mut expect = 0u8;
                    for i in 0..8 {
                        let b = ((w >> (i * 8)) & 0xFF) as u8;
                        if b < t {
                            expect |= 1 << i;
                        }
                    }
                    assert_eq!(got, expect, "v={v} t={t} lane={lane}");
                }
            }
        }
        // and random full words, where lanes interact if borrows leak
        let mut rng = Lcg(9);
        for _ in 0..2000 {
            let w = rng.next() ^ (rng.next() << 32);
            let t = (rng.next() & 0xFF) as u8;
            let mut expect = 0u8;
            for i in 0..8 {
                if (((w >> (i * 8)) & 0xFF) as u8) < t {
                    expect |= 1 << i;
                }
            }
            assert_eq!(pack_below_threshold(w, t), expect, "w={w:#x} t={t}");
        }
    }

    fn random_bitmap(rng: &mut Lcg, w: usize, h: usize) -> Bitmap {
        let mut img = Bitmap::new(w, h, Rgb::WHITE);
        for y in 0..h {
            for x in 0..w {
                let v = rng.next();
                img.set(x, y, Rgb::new(v as u8, (v >> 8) as u8, (v >> 16) as u8));
            }
        }
        img
    }

    #[test]
    fn mask_matches_bool_reference_across_shapes_and_thresholds() {
        let mut rng = Lcg(41);
        let mut mask = InkMask::new();
        let mut scratch = Vec::new();
        // widths straddling word boundaries: 1, 63, 64, 65, 127, 128, 130
        for (w, h) in [
            (1, 3),
            (63, 2),
            (64, 2),
            (65, 2),
            (127, 1),
            (128, 4),
            (130, 3),
        ] {
            for t in [0u8, 1, 77, 128, 200, 255] {
                let img = random_bitmap(&mut rng, w, h);
                mask.fill_from(&img, t, &mut scratch);
                let reference: Vec<bool> = img.pixels().iter().map(|p| p.luma() < t).collect();
                assert_eq!(mask.width(), w);
                assert_eq!(mask.height(), h);
                for y in 0..h {
                    for x in 0..w {
                        assert_eq!(
                            mask.get(x, y),
                            reference[y * w + x],
                            "({x},{y}) w={w} t={t}"
                        );
                    }
                }
                assert_eq!(
                    mask.count_ink(),
                    reference.iter().filter(|&&b| b).count(),
                    "padding bits must stay zero (w={w} t={t})"
                );
            }
        }
    }

    #[test]
    fn refill_shrinks_and_regrows_cleanly() {
        let mut rng = Lcg(5);
        let mut mask = InkMask::new();
        let mut scratch = Vec::new();
        let big = random_bitmap(&mut rng, 130, 4);
        let small = random_bitmap(&mut rng, 9, 2);
        mask.fill_from(&big, 128, &mut scratch);
        mask.fill_from(&small, 128, &mut scratch);
        assert_eq!(mask.width(), 9);
        let reference: Vec<bool> = small.pixels().iter().map(|p| p.luma() < 128).collect();
        assert_eq!(mask.count_ink(), reference.iter().filter(|&&b| b).count());
        // stale words from the larger fill must not leak into scans
        assert_eq!(mask.row_words(1).len(), 1);
    }

    #[test]
    fn next_transition_matches_naive_scan() {
        let mut rng = Lcg(23);
        let mut mask = InkMask::new();
        let mut scratch = Vec::new();
        for (w, h) in [(67, 3), (128, 2), (200, 2)] {
            let img = random_bitmap(&mut rng, w, h);
            mask.fill_from(&img, 128, &mut scratch);
            for y in 0..h {
                for from in [0usize, 1, 63, 64, 65, w - 1, w] {
                    for value in [false, true] {
                        let naive = (from..w).find(|&x| mask.get(x, y) != value).unwrap_or(w);
                        assert_eq!(
                            mask.next_transition(y, from, value),
                            naive,
                            "y={y} from={from} value={value} w={w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn leftmost_ink_matches_naive_band_scan() {
        let mut rng = Lcg(71);
        let mut mask = InkMask::new();
        let mut scratch = Vec::new();
        let img = random_bitmap(&mut rng, 150, 12);
        mask.fill_from(&img, 60, &mut scratch);
        for (y0, y1) in [(0usize, 7usize), (3, 10), (5, 5), (8, 40)] {
            let mut naive = None;
            'outer: for x in 0..mask.width() {
                for y in y0..y1.min(mask.height()) {
                    if mask.get(x, y) {
                        naive = Some(x);
                        break 'outer;
                    }
                }
            }
            assert_eq!(mask.leftmost_ink_in_band(y0, y1), naive, "band {y0}..{y1}");
        }
        // blank band
        let blank = Bitmap::new(100, 3, Rgb::WHITE);
        mask.fill_from(&blank, 128, &mut scratch);
        assert_eq!(mask.leftmost_ink_in_band(0, 3), None);
    }

    #[test]
    fn hamming_matches_bool_xor_walk() {
        let mut rng = Lcg(13);
        let mut a = InkMask::new();
        let mut b = InkMask::new();
        let mut scratch = Vec::new();
        let img_a = random_bitmap(&mut rng, 97, 5);
        let img_b = random_bitmap(&mut rng, 97, 5);
        a.fill_from(&img_a, 128, &mut scratch);
        b.fill_from(&img_b, 128, &mut scratch);
        let naive: usize = (0..5)
            .flat_map(|y| (0..97).map(move |x| (x, y)))
            .filter(|&(x, y)| a.get(x, y) != b.get(x, y))
            .count();
        assert_eq!(a.hamming(&b), naive);
        assert_eq!(a.hamming(&a), 0);
    }
}
