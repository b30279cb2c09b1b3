#![warn(missing_docs)]

//! Perceptual image hashing: pHash and dHash over grayscale bitmaps.
//!
//! CrawlerBox classifies a crawled page as **spear phishing** when its
//! screenshot is visually similar to one of the five companies' legitimate
//! login pages (§V-A). Screenshots "often contain the victim's email address
//! and some injected noise", so exact comparison fails; the paper uses two
//! fuzzy hashes — pHash (perceptual, DCT-based) and dHash (differential,
//! gradient-based) — compared by Hamming distance under a hand-tuned
//! threshold, and reports that their *combination* performs best. Both
//! primarily see grayscale information, which is why the attackers'
//! `hue-rotate(4deg)` trick (§V-C2 d) does not defeat them.
//!
//! # Example
//!
//! ```
//! use cb_artifacts::{Bitmap, Rgb};
//! use cb_imagehash::{phash, dhash, HashPair};
//!
//! let mut login = Bitmap::new(128, 96, Rgb::WHITE);
//! login.fill_rect(0, 0, 128, 14, Rgb::new(0, 60, 180)); // header band
//! login.fill_rect(24, 30, 80, 8, Rgb::new(220, 220, 220)); // form field
//! login.fill_rect(24, 46, 80, 8, Rgb::new(220, 220, 220)); // form field
//! login.fill_rect(44, 64, 40, 10, Rgb::new(0, 60, 180)); // button
//!
//! // The attackers' hue-rotate(4deg) trick changes pixel colours but not
//! // the grayscale structure the hashes see.
//! let cloaked = login.hue_rotate(4.0);
//! let a = HashPair::of(&login);
//! let b = HashPair::of(&cloaked);
//! assert!(a.similar_to(&b, 6));
//! assert_eq!(dhash(&login), dhash(&cloaked));
//! ```

pub mod dct;

use cb_artifacts::Bitmap;
use cb_json::{Deserialize, Serialize};

/// pHash: resample to 32×32 grayscale, 2-D DCT, take the 8×8 low-frequency
/// block (skipping the DC term for the median), threshold on the median.
pub fn phash(img: &Bitmap) -> u64 {
    let small = img.to_gray().scale_to(32, 32);
    let luma = small.luma_values();
    let input: Vec<f64> = luma.iter().map(|&v| v as f64).collect();
    let freq = dct::dct2_32(&input);

    // Collect the top-left 8x8 coefficients (lowest frequencies).
    let mut coeffs = [0.0f64; 64];
    for y in 0..8 {
        for x in 0..8 {
            coeffs[y * 8 + x] = freq[y * 32 + x];
        }
    }
    // Median over the 64 values excluding the DC coefficient.
    let mut sorted: Vec<f64> = coeffs[1..].to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite DCT output"));
    let median = (sorted[31] + sorted[32]) / 2.0;

    let mut hash = 0u64;
    for (i, &c) in coeffs.iter().enumerate() {
        if c > median {
            hash |= 1 << i;
        }
    }
    hash
}

/// dHash: resample to 9×8 grayscale and hash the sign of each horizontal
/// gradient.
pub fn dhash(img: &Bitmap) -> u64 {
    let small = img.to_gray().scale_to(9, 8);
    let luma = small.luma_values();
    let mut hash = 0u64;
    let mut bit = 0;
    for y in 0..8 {
        for x in 0..8 {
            if luma[y * 9 + x] > luma[y * 9 + x + 1] {
                hash |= 1 << bit;
            }
            bit += 1;
        }
    }
    hash
}

/// Hamming distance between two 64-bit hashes.
pub fn distance(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// The combined pHash + dHash fingerprint the paper's classifier uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HashPair {
    /// Perceptual hash.
    pub phash: u64,
    /// Differential hash.
    pub dhash: u64,
}

impl HashPair {
    /// Compute both hashes of `img`.
    pub fn of(img: &Bitmap) -> HashPair {
        HashPair {
            phash: phash(img),
            dhash: dhash(img),
        }
    }

    /// Worst-case (maximum) of the two Hamming distances; requiring *both*
    /// hashes to agree is the combination the paper found most reliable.
    pub fn distance(&self, other: &HashPair) -> u32 {
        distance(self.phash, other.phash).max(distance(self.dhash, other.dhash))
    }

    /// `true` if both hashes are within `threshold` bits.
    pub fn similar_to(&self, other: &HashPair, threshold: u32) -> bool {
        self.distance(other) <= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_artifacts::Rgb;

    /// A deterministic "login page" screenshot: header band, two form
    /// fields, a button.
    fn login_page(brand: Rgb) -> Bitmap {
        let mut img = Bitmap::new(128, 96, Rgb::WHITE);
        img.fill_rect(0, 0, 128, 14, brand);
        img.fill_rect(24, 30, 80, 8, Rgb::new(220, 220, 220));
        img.fill_rect(24, 46, 80, 8, Rgb::new(220, 220, 220));
        img.fill_rect(44, 64, 40, 10, brand);
        img
    }

    /// A visually different page: dense text grid.
    fn newsletter_page() -> Bitmap {
        let mut img = Bitmap::new(128, 96, Rgb::WHITE);
        for row in 0..8 {
            img.fill_rect(6, 6 + row * 11, 116, 5, Rgb::new(30, 30, 30));
        }
        img
    }

    #[test]
    fn identical_images_have_zero_distance() {
        let a = login_page(Rgb::new(0, 60, 180));
        assert_eq!(distance(phash(&a), phash(&a)), 0);
        assert_eq!(distance(dhash(&a), dhash(&a)), 0);
    }

    #[test]
    fn different_layouts_are_far_apart() {
        let a = HashPair::of(&login_page(Rgb::new(0, 60, 180)));
        let b = HashPair::of(&newsletter_page());
        assert!(a.distance(&b) > 16, "distance {}", a.distance(&b));
    }

    #[test]
    fn noise_injection_survives() {
        // The paper: screenshots contain "the victim's email address and
        // some injected noise" yet must still match the legitimate page.
        let clean = login_page(Rgb::new(0, 60, 180));
        let mut noisy = clean.add_noise(99, 60);
        noisy.draw_text(26, 31, "victim@corp.example", 1, Rgb::new(60, 60, 60));
        let a = HashPair::of(&clean);
        let b = HashPair::of(&noisy);
        assert!(a.similar_to(&b, 10), "distance {}", a.distance(&b));
    }

    #[test]
    fn scaling_survives() {
        let clean = login_page(Rgb::new(0, 60, 180));
        let scaled = clean.scale_to(192, 144);
        let a = HashPair::of(&clean);
        let b = HashPair::of(&scaled);
        assert!(a.similar_to(&b, 8), "distance {}", a.distance(&b));
    }

    #[test]
    fn hue_rotate_4deg_does_not_defeat_hashes() {
        // §V-C2(d): the attackers' hue-rotate(4deg) trick is ineffective
        // against grayscale fuzzy hashes — reproduce that claim.
        let clean = login_page(Rgb::new(0, 60, 180));
        let rotated = clean.hue_rotate(4.0);
        let a = HashPair::of(&clean);
        let b = HashPair::of(&rotated);
        assert!(a.similar_to(&b, 6), "distance {}", a.distance(&b));
    }

    #[test]
    fn crop_robustness_shows_hash_complementarity() {
        // Cropping shifts sharp synthetic edges: pHash loses many
        // near-median low-frequency bits, while dHash (gradient signs)
        // barely moves. This complementarity is why the paper combines the
        // two hashes rather than relying on either alone.
        let clean = login_page(Rgb::new(0, 60, 180));
        let cropped = clean.crop(2, 2, 124, 92);
        let a = HashPair::of(&clean);
        let b = HashPair::of(&cropped);
        assert!(
            distance(a.dhash, b.dhash) <= 4,
            "dhash crop distance {}",
            distance(a.dhash, b.dhash)
        );
        assert!(distance(a.phash, b.phash) > distance(a.dhash, b.dhash));
    }

    #[test]
    fn different_brands_same_layout_are_close_on_structure() {
        // Same layout with a different brand colour: grayscale luma differs
        // somewhat but layout dominates. This documents why thresholds are
        // tuned per deployment (the paper: "manually define a threshold").
        let a = HashPair::of(&login_page(Rgb::new(0, 60, 180)));
        let b = HashPair::of(&login_page(Rgb::new(150, 20, 20)));
        assert!(a.distance(&b) <= 20);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = HashPair::of(&login_page(Rgb::new(0, 60, 180)));
        let b = HashPair::of(&newsletter_page());
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(a.distance(&b) <= 64);
    }
}
