//! The QR module grid: function patterns, format/version information,
//! zigzag data placement, masking, and penalty scoring.
//!
//! Coordinates are `(row, col)` with the origin at the top-left module.

use crate::tables::{alignment_centers, symbol_size, EcLevel, MAX_VERSION};

/// BCH(15,5) generator for format information.
const FORMAT_GEN: u32 = 0b101_0011_0111;
/// XOR mask applied to the encoded format bits.
const FORMAT_MASK: u32 = 0b101_0100_0001_0010;
/// BCH(18,6) generator for version information.
const VERSION_GEN: u32 = 0b1_1111_0010_0101;

/// Encode the 5 format data bits (EC level ‖ mask id) into the masked 15-bit
/// format string.
pub fn encode_format(level: EcLevel, mask: u8) -> u32 {
    let data = ((level.format_bits() as u32) << 3) | mask as u32;
    let mut rem = data << 10;
    for i in (10..15).rev() {
        if rem >> i & 1 == 1 {
            rem ^= FORMAT_GEN << (i - 10);
        }
    }
    ((data << 10) | rem) ^ FORMAT_MASK
}

/// Decode a (possibly corrupted) 15-bit format string by exhaustive
/// minimum-distance matching over all 32 valid codewords. Tolerates up to 3
/// bit errors (the code's design distance is 7).
pub fn decode_format(bits: u32) -> Option<(EcLevel, u8)> {
    let mut best: Option<(u32, EcLevel, u8)> = None;
    for level in [EcLevel::L, EcLevel::M, EcLevel::Q, EcLevel::H] {
        for mask in 0..8u8 {
            let cand = encode_format(level, mask);
            let dist = (cand ^ bits).count_ones();
            if best.map(|(d, _, _)| dist < d).unwrap_or(true) {
                best = Some((dist, level, mask));
            }
        }
    }
    best.and_then(|(d, l, m)| if d <= 3 { Some((l, m)) } else { None })
}

/// Encode the 18-bit version information string for `version` (≥ 7).
pub fn encode_version_info(version: usize) -> u32 {
    let data = version as u32;
    let mut rem = data << 12;
    for i in (12..18).rev() {
        if rem >> i & 1 == 1 {
            rem ^= VERSION_GEN << (i - 12);
        }
    }
    (data << 12) | rem
}

/// The module grid of one QR symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QrMatrix {
    version: usize,
    size: usize,
    /// Dark = true.
    modules: Vec<bool>,
    /// Function-pattern / reserved positions (not data).
    reserved: Vec<bool>,
}

impl QrMatrix {
    /// A fresh matrix for `version` with all function patterns drawn and the
    /// format/version areas reserved.
    ///
    /// # Panics
    ///
    /// Panics if `version` is outside `1..=MAX_VERSION`.
    pub fn new(version: usize) -> Self {
        assert!(
            (1..=MAX_VERSION).contains(&version),
            "version {version} unsupported"
        );
        let size = symbol_size(version);
        let mut m = QrMatrix {
            version,
            size,
            modules: vec![false; size * size],
            reserved: vec![false; size * size],
        };
        m.draw_finders();
        m.draw_timing();
        m.draw_alignment();
        m.reserve_format_areas();
        if version >= 7 {
            m.draw_version_info();
        }
        // Dark module at (4*version + 9, 8).
        m.set(4 * version + 9, 8, true);
        m.reserve(4 * version + 9, 8);
        m
    }

    /// Symbol version (1–10).
    pub fn version(&self) -> usize {
        self.version
    }

    /// Side length in modules.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Module at `(row, col)`; `true` is dark.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.modules[row * self.size + col]
    }

    /// Set module at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, dark: bool) {
        self.modules[row * self.size + col] = dark;
    }

    /// `true` if `(row, col)` is a function-pattern / reserved position.
    pub fn is_reserved(&self, row: usize, col: usize) -> bool {
        self.reserved[row * self.size + col]
    }

    fn reserve(&mut self, row: usize, col: usize) {
        self.reserved[row * self.size + col] = true;
    }

    fn draw_finders(&mut self) {
        let n = self.size;
        for &(r0, c0) in &[(0usize, 0usize), (0, n - 7), (n - 7, 0)] {
            // 7x7 finder
            for dr in 0..7 {
                for dc in 0..7 {
                    let dark = dr == 0
                        || dr == 6
                        || dc == 0
                        || dc == 6
                        || ((2..=4).contains(&dr) && (2..=4).contains(&dc));
                    self.set(r0 + dr, c0 + dc, dark);
                    self.reserve(r0 + dr, c0 + dc);
                }
            }
            // separator ring (light)
            for dr in -1i32..=7 {
                for dc in -1i32..=7 {
                    let r = r0 as i32 + dr;
                    let c = c0 as i32 + dc;
                    if (0..n as i32).contains(&r)
                        && (0..n as i32).contains(&c)
                        && !self.is_reserved(r as usize, c as usize)
                    {
                        self.set(r as usize, c as usize, false);
                        self.reserve(r as usize, c as usize);
                    }
                }
            }
        }
    }

    fn draw_timing(&mut self) {
        for i in 8..self.size - 8 {
            if !self.is_reserved(6, i) {
                self.set(6, i, i % 2 == 0);
                self.reserve(6, i);
            }
            if !self.is_reserved(i, 6) {
                self.set(i, 6, i % 2 == 0);
                self.reserve(i, 6);
            }
        }
    }

    fn draw_alignment(&mut self) {
        let centers = alignment_centers(self.version);
        for &cr in centers {
            for &cc in centers {
                // skip patterns overlapping finders
                let overlaps_finder = self.is_reserved(cr, cc)
                    && !(self.get(6, cc) && cr == 6 || self.get(cr, 6) && cc == 6);
                // robust check: skip if the 5x5 area touches a finder corner zone
                let near_finder = (cr <= 8 && (cc <= 8 || cc >= self.size - 9))
                    || (cr >= self.size - 9 && cc <= 8);
                if near_finder {
                    let _ = overlaps_finder;
                    continue;
                }
                for dr in -2i32..=2 {
                    for dc in -2i32..=2 {
                        let r = (cr as i32 + dr) as usize;
                        let c = (cc as i32 + dc) as usize;
                        let dark = dr.abs() == 2 || dc.abs() == 2 || (dr == 0 && dc == 0);
                        self.set(r, c, dark);
                        self.reserve(r, c);
                    }
                }
            }
        }
    }

    fn reserve_format_areas(&mut self) {
        let n = self.size;
        for i in 0..9 {
            if i != 6 {
                self.reserve(8, i);
                self.reserve(i, 8);
            }
        }
        for i in 0..8 {
            self.reserve(8, n - 1 - i);
            self.reserve(n - 1 - i, 8);
        }
    }

    fn draw_version_info(&mut self) {
        let info = encode_version_info(self.version);
        let n = self.size;
        // 6x3 blocks: bottom-left (rows n-11..n-9, cols 0..6) and top-right
        // (rows 0..6, cols n-11..n-9). Bit 0 (LSB) goes first.
        for i in 0..18 {
            let bit = info >> i & 1 == 1;
            let row = i / 3;
            let col = n - 11 + i % 3;
            self.set(row, col, bit);
            self.reserve(row, col);
            self.set(col, row, bit);
            self.reserve(col, row);
        }
    }

    /// Write the format information for `(level, mask)` into both copies.
    pub fn write_format(&mut self, level: EcLevel, mask: u8) {
        let bits = encode_format(level, mask);
        let n = self.size;
        let get_bit = |i: usize| bits >> i & 1 == 1; // i = 0 is LSB
                                                     // Copy 1 around top-left finder: bit 14 (MSB) first along row 8
                                                     // cols 0..=5,7,8 then up column 8 rows 7,5..=0.
        let coords_a = [
            (8usize, 0usize),
            (8, 1),
            (8, 2),
            (8, 3),
            (8, 4),
            (8, 5),
            (8, 7),
            (8, 8),
            (7, 8),
            (5, 8),
            (4, 8),
            (3, 8),
            (2, 8),
            (1, 8),
            (0, 8),
        ];
        for (idx, &(r, c)) in coords_a.iter().enumerate() {
            self.set(r, c, get_bit(14 - idx));
        }
        // Copy 2: bits 14..8 down column 8 from bottom, bits 7..0 along row 8
        // from the right.
        for i in 0..7 {
            self.set(n - 1 - i, 8, get_bit(14 - i));
        }
        for i in 0..8 {
            self.set(8, n - 8 + i, get_bit(7 - i));
        }
    }

    /// Read both format-information copies, returning the first that decodes.
    pub fn read_format(&self) -> Option<(EcLevel, u8)> {
        let n = self.size;
        let coords_a = [
            (8usize, 0usize),
            (8, 1),
            (8, 2),
            (8, 3),
            (8, 4),
            (8, 5),
            (8, 7),
            (8, 8),
            (7, 8),
            (5, 8),
            (4, 8),
            (3, 8),
            (2, 8),
            (1, 8),
            (0, 8),
        ];
        let mut a = 0u32;
        for &(r, c) in &coords_a {
            a = (a << 1) | self.get(r, c) as u32;
        }
        let mut b = 0u32;
        for i in 0..7 {
            b = (b << 1) | self.get(n - 1 - i, 8) as u32;
        }
        for i in 0..8 {
            b = (b << 1) | self.get(8, n - 8 + i) as u32;
        }
        decode_format(a).or_else(|| decode_format(b))
    }

    /// The zigzag traversal order of data-module positions.
    pub fn data_positions(&self) -> Vec<(usize, usize)> {
        let n = self.size;
        let mut out = Vec::new();
        let mut col = n as i32 - 1;
        let mut upward = true;
        while col > 0 {
            if col == 6 {
                col -= 1; // skip the vertical timing column entirely
            }
            let rows: Vec<usize> = if upward {
                (0..n).rev().collect()
            } else {
                (0..n).collect()
            };
            for r in rows {
                for dc in 0..2 {
                    let c = (col - dc) as usize;
                    if !self.is_reserved(r, c) {
                        out.push((r, c));
                    }
                }
            }
            upward = !upward;
            col -= 2;
        }
        out
    }

    /// Place data bits along the zigzag order. Unfilled trailing positions
    /// (remainder bits) stay light.
    pub fn place_data(&mut self, bits: &[bool]) {
        let positions = self.data_positions();
        for (i, &(r, c)) in positions.iter().enumerate() {
            self.set(r, c, bits.get(i).copied().unwrap_or(false));
        }
    }

    /// Read data bits back in zigzag order.
    pub fn extract_data_bits(&self) -> Vec<bool> {
        self.data_positions()
            .iter()
            .map(|&(r, c)| self.get(r, c))
            .collect()
    }

    /// Whether mask `mask` inverts position `(r, c)`.
    pub fn mask_bit(mask: u8, r: usize, c: usize) -> bool {
        match mask {
            0 => (r + c).is_multiple_of(2),
            1 => r.is_multiple_of(2),
            2 => c.is_multiple_of(3),
            3 => (r + c).is_multiple_of(3),
            4 => (r / 2 + c / 3).is_multiple_of(2),
            5 => (r * c) % 2 + (r * c) % 3 == 0,
            6 => ((r * c) % 2 + (r * c) % 3).is_multiple_of(2),
            7 => ((r + c) % 2 + (r * c) % 3).is_multiple_of(2),
            _ => panic!("mask {mask} out of range 0..8"),
        }
    }

    /// XOR the mask over every non-reserved module (involutive).
    pub fn apply_mask(&mut self, mask: u8) {
        for r in 0..self.size {
            for c in 0..self.size {
                if !self.is_reserved(r, c) && Self::mask_bit(mask, r, c) {
                    let v = self.get(r, c);
                    self.set(r, c, !v);
                }
            }
        }
    }

    /// ISO 18004 §8.8.2 penalty score (lower is better).
    pub fn penalty(&self) -> u32 {
        let n = self.size;
        let mut score = 0u32;

        // Rule 1: runs of ≥5 same-colour modules in a row/column.
        for r in 0..n {
            let mut run = 1;
            for c in 1..n {
                if self.get(r, c) == self.get(r, c - 1) {
                    run += 1;
                } else {
                    if run >= 5 {
                        score += 3 + (run - 5);
                    }
                    run = 1;
                }
            }
            if run >= 5 {
                score += 3 + (run - 5);
            }
        }
        for c in 0..n {
            let mut run = 1;
            for r in 1..n {
                if self.get(r, c) == self.get(r - 1, c) {
                    run += 1;
                } else {
                    if run >= 5 {
                        score += 3 + (run - 5);
                    }
                    run = 1;
                }
            }
            if run >= 5 {
                score += 3 + (run - 5);
            }
        }

        // Rule 2: 2x2 blocks of same colour.
        for r in 0..n - 1 {
            for c in 0..n - 1 {
                let v = self.get(r, c);
                if v == self.get(r, c + 1) && v == self.get(r + 1, c) && v == self.get(r + 1, c + 1)
                {
                    score += 3;
                }
            }
        }

        // Rule 3: finder-like patterns 1011101 with 4 light on either side.
        let pat_a = [
            true, false, true, true, true, false, true, false, false, false, false,
        ];
        let pat_b = [
            false, false, false, false, true, false, true, true, true, false, true,
        ];
        for r in 0..n {
            for c in 0..n.saturating_sub(10) {
                let row_match = |p: &[bool; 11]| (0..11).all(|i| self.get(r, c + i) == p[i]);
                if row_match(&pat_a) || row_match(&pat_b) {
                    score += 40;
                }
                let col_match = |p: &[bool; 11]| (0..11).all(|i| self.get(c + i, r) == p[i]);
                if col_match(&pat_a) || col_match(&pat_b) {
                    score += 40;
                }
            }
        }

        // Rule 4: dark-module proportion deviation from 50%.
        let dark = self.modules.iter().filter(|&&b| b).count();
        let percent = dark * 100 / (n * n);
        let deviation = percent.abs_diff(50);
        score += (deviation / 5) as u32 * 10;

        score
    }

    /// Render as text: `#` for dark, `.` for light (debug aid).
    pub fn render_text(&self) -> String {
        let mut s = String::with_capacity((self.size + 1) * self.size);
        for r in 0..self.size {
            for c in 0..self.size {
                s.push(if self.get(r, c) { '#' } else { '.' });
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bch_known_vectors() {
        // Data 00000 (M, mask 0): remainder 0, so result is the XOR mask.
        assert_eq!(encode_format(EcLevel::M, 0), FORMAT_MASK);
        // Published example: L + mask 4 -> 110011000101111.
        assert_eq!(encode_format(EcLevel::L, 4), 0b110_0110_0010_1111);
    }

    #[test]
    fn format_decode_round_trip_and_error_tolerance() {
        for level in [EcLevel::L, EcLevel::M, EcLevel::Q, EcLevel::H] {
            for mask in 0..8 {
                let enc = encode_format(level, mask);
                assert_eq!(decode_format(enc), Some((level, mask)));
                // flip 3 bits: still decodes
                let corrupted = enc ^ 0b101_0000_0000_0100 & 0x7FFF;
                assert_eq!(decode_format(corrupted), Some((level, mask)));
            }
        }
    }

    #[test]
    fn version_info_known_constants() {
        assert_eq!(encode_version_info(7), 0x07C94);
        assert_eq!(encode_version_info(8), 0x085BC);
        assert_eq!(encode_version_info(9), 0x09A99);
        assert_eq!(encode_version_info(10), 0x0A4D3);
    }

    #[test]
    fn finder_patterns_present() {
        let m = QrMatrix::new(1);
        // centers of the three finders are dark
        assert!(m.get(3, 3));
        assert!(m.get(3, 17));
        assert!(m.get(17, 3));
        // separator is light
        assert!(!m.get(7, 7));
        // dark module at (4·version + 9, 8)
        assert!(m.get(4 + 9, 8));
    }

    #[test]
    fn timing_pattern_alternates() {
        let m = QrMatrix::new(2);
        for i in 8..m.size() - 8 {
            assert_eq!(m.get(6, i), i % 2 == 0);
            assert_eq!(m.get(i, 6), i % 2 == 0);
        }
    }

    #[test]
    fn data_capacity_matches_spec() {
        // v1: 26 codewords * 8 = 208 data bit positions.
        let m = QrMatrix::new(1);
        assert_eq!(m.data_positions().len(), 208);
        // v2: 44 * 8 + 7 remainder = 359.
        let m = QrMatrix::new(2);
        assert_eq!(m.data_positions().len(), 359);
        // v7: 196 * 8 + 0 remainder.
        let m = QrMatrix::new(7);
        assert_eq!(m.data_positions().len(), 1568);
        // v10: 346 * 8.
        let m = QrMatrix::new(10);
        assert_eq!(m.data_positions().len(), 2768);
    }

    #[test]
    fn place_and_extract_round_trip() {
        let mut m = QrMatrix::new(3);
        let n = m.data_positions().len();
        let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        m.place_data(&bits);
        assert_eq!(m.extract_data_bits(), bits);
    }

    #[test]
    fn mask_is_involutive() {
        let mut m = QrMatrix::new(2);
        let bits: Vec<bool> = (0..m.data_positions().len()).map(|i| i % 7 == 0).collect();
        m.place_data(&bits);
        let before = m.clone();
        for mask in 0..8 {
            m.apply_mask(mask);
            assert_ne!(m, before, "mask {mask} changed nothing");
            m.apply_mask(mask);
            assert_eq!(m, before, "mask {mask} not involutive");
        }
    }

    #[test]
    fn masks_do_not_touch_function_patterns() {
        let mut m = QrMatrix::new(4);
        let finder_center = m.get(3, 3);
        m.apply_mask(0);
        assert_eq!(m.get(3, 3), finder_center);
        assert_eq!(m.get(6, 10), 10 % 2 == 0); // timing untouched
    }

    #[test]
    fn format_write_read_round_trip() {
        for version in [1usize, 5, 10] {
            for level in [EcLevel::L, EcLevel::H] {
                for mask in [0u8, 3, 7] {
                    let mut m = QrMatrix::new(version);
                    m.write_format(level, mask);
                    assert_eq!(m.read_format(), Some((level, mask)), "v{version}");
                }
            }
        }
    }

    #[test]
    fn penalty_prefers_balanced_patterns() {
        // An all-dark data area scores much worse than alternating data.
        let mut uniform = QrMatrix::new(1);
        uniform.place_data(&vec![true; 208]);
        let mut alternating = QrMatrix::new(1);
        alternating.place_data(&(0..208).map(|i| i % 2 == 0).collect::<Vec<_>>());
        assert!(uniform.penalty() > alternating.penalty());
    }

    #[test]
    fn version_7_plus_reserves_version_areas() {
        let m = QrMatrix::new(7);
        let n = m.size();
        for i in 0..18 {
            assert!(m.is_reserved(i / 3, n - 11 + i % 3));
            assert!(m.is_reserved(n - 11 + i % 3, i / 3));
        }
    }

    #[test]
    fn render_text_shape() {
        let m = QrMatrix::new(1);
        let txt = m.render_text();
        assert_eq!(txt.lines().count(), 21);
        assert!(txt.lines().all(|l| l.len() == 21));
    }
}
