//! Spear-phishing classification (§V-A): visual similarity of crawl
//! screenshots to the five companies' legitimate login pages, via the
//! pHash + dHash pair under a hand-tuned threshold.

use cb_artifacts::Bitmap;
use cb_browser::engine::VIEWPORT;
use cb_imagehash::HashPair;
use cb_json::{Deserialize, Serialize};
use cb_phishkit::Brand;
use cb_web::{render, Document};
use std::sync::OnceLock;

/// The classifier with its reference hash set.
#[derive(Debug, Clone)]
pub struct SpearClassifier {
    references: &'static [(Brand, HashPair)],
    threshold: u32,
}

/// The companies' login pages rendered at the crawler viewport and hashed.
/// They depend only on constant page templates, so every classifier in the
/// process shares one rendering.
fn reference_hashes() -> &'static [(Brand, HashPair)] {
    static REFERENCES: OnceLock<Vec<(Brand, HashPair)>> = OnceLock::new();
    REFERENCES.get_or_init(|| {
        Brand::companies()
            .into_iter()
            .map(|brand| {
                let doc = Document::parse(&brand.login_html(""));
                let shot = render::rasterize(&doc, VIEWPORT.0, VIEWPORT.1);
                (brand, HashPair::of(&shot))
            })
            .collect()
    })
}

/// A positive classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpearMatch {
    /// The impersonated company.
    pub brand: Brand,
    /// Hamming distance of the worse hash.
    pub distance: u32,
}

/// The hand-tuned default threshold ("we manually define a threshold under
/// which we confirm that two images are considered similar").
pub const DEFAULT_THRESHOLD: u32 = 14;

impl SpearClassifier {
    /// The classifier at [`DEFAULT_THRESHOLD`], against each company's
    /// legitimate login page rendered at the crawler viewport.
    pub fn new() -> SpearClassifier {
        Self::with_threshold(DEFAULT_THRESHOLD)
    }

    /// Build with a custom similarity threshold.
    pub fn with_threshold(threshold: u32) -> SpearClassifier {
        SpearClassifier {
            references: reference_hashes(),
            threshold,
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Classify a crawl screenshot: the closest company within the
    /// threshold, if any.
    pub fn classify(&self, screenshot: &Bitmap) -> Option<SpearMatch> {
        let hash = HashPair::of(screenshot);
        self.references
            .iter()
            .map(|(brand, reference)| SpearMatch {
                brand: *brand,
                distance: hash.distance(reference),
            })
            .filter(|m| m.distance <= self.threshold)
            .min_by_key(|m| m.distance)
    }
}

impl Default for SpearClassifier {
    fn default() -> Self {
        SpearClassifier::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_phishkit::scripts::lookalike_login;

    fn shot(html: &str) -> Bitmap {
        render::rasterize(&Document::parse(html), VIEWPORT.0, VIEWPORT.1)
    }

    #[test]
    fn legitimate_pages_match_themselves() {
        let c = SpearClassifier::new();
        for brand in Brand::companies() {
            let m = c
                .classify(&shot(&brand.login_html("")))
                .unwrap_or_else(|| panic!("{brand} must match itself"));
            assert_eq!(m.brand, brand);
            assert_eq!(m.distance, 0);
        }
    }

    #[test]
    fn lookalike_with_noise_and_victim_email_matches() {
        let c = SpearClassifier::new();
        for brand in Brand::companies() {
            let html = lookalike_login(
                brand,
                "https://c2.example",
                &[],
                true,
                false,
                Some("victim-77@corp.example 8fa8d8xk"),
            );
            let m = c.classify(&shot(&html));
            assert!(m.is_some(), "{brand} lookalike must classify as spear");
            assert_eq!(m.unwrap().brand, brand);
        }
    }

    #[test]
    fn hue_rotated_lookalike_still_matches() {
        // §V-C2(d): the trick "is not efficient against CrawlerBox".
        let c = SpearClassifier::new();
        let html = lookalike_login(Brand::Amadora, "https://c2.example", &[], true, true, None);
        let m = c.classify(&shot(&html));
        assert!(m.is_some(), "hue-rotate must not defeat classification");
        assert_eq!(m.unwrap().brand, Brand::Amadora);
    }

    #[test]
    fn commodity_lookalikes_do_not_match_companies() {
        let c = SpearClassifier::new();
        for brand in [
            Brand::Microsoft,
            Brand::Excel,
            Brand::OneDrive,
            Brand::DocuSign,
        ] {
            let html = lookalike_login(brand, "https://c2.example", &[], false, false, None);
            assert!(
                c.classify(&shot(&html)).is_none(),
                "{brand} lure must not classify as company spear"
            );
        }
    }

    #[test]
    fn unrelated_pages_do_not_match() {
        let c = SpearClassifier::new();
        for html in [
            "<body><h2>Site under maintenance</h2><p>back shortly</p></body>",
            "<body><p>a</p><p>b</p><p>c</p><p>d</p><p>e</p><p>f</p><p>g</p></body>",
        ] {
            assert!(c.classify(&shot(html)).is_none(), "{html}");
        }
    }

    #[test]
    fn threshold_is_adjustable() {
        let strict = SpearClassifier::with_threshold(0);
        let html = lookalike_login(
            Brand::SkyBook,
            "https://c2.example",
            &[],
            true,
            false,
            Some("noise"),
        );
        // at threshold 0 only pixel-identical hashes match
        assert!(strict.classify(&shot(&html)).is_none());
        assert_eq!(strict.threshold(), 0);
    }
}
