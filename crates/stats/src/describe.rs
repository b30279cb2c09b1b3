//! Descriptive statistics.
//!
//! The paper reports means with standard deviations (518.1 ± 278.4 messages
//! per month), medians (575 h / 185 h timedeltas, 1.0 reported message per
//! domain) and excess kurtosis (8.4 / 6.8 for the fat-tailed timedelta
//! distributions). [`Describe`] computes all of them in one pass over a
//! sample.

use cb_json::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Describe {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator).
    pub stddev: f64,
    /// Median (average of the two central order statistics for even n).
    pub median: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Excess kurtosis (Fisher definition: normal = 0). The paper's 8.4 and
    /// 6.8 are excess values — "fat tails" means positive excess kurtosis.
    pub kurtosis_excess: f64,
    /// Skewness (third standardized moment).
    pub skewness: f64,
}

impl Describe {
    /// Compute the summary of `sample`.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is empty or contains non-finite values.
    pub fn of(sample: &[f64]) -> Describe {
        assert!(!sample.is_empty(), "cannot describe an empty sample");
        assert!(
            sample.iter().all(|x| x.is_finite()),
            "sample contains non-finite values"
        );
        let n = sample.len();
        let nf = n as f64;
        let mean = sample.iter().sum::<f64>() / nf;

        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut m4 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in sample {
            let d = x - mean;
            m2 += d * d;
            m3 += d * d * d;
            m4 += d * d * d * d;
            min = min.min(x);
            max = max.max(x);
        }
        m2 /= nf;
        m3 /= nf;
        m4 /= nf;

        let variance_sample = if n > 1 { m2 * nf / (nf - 1.0) } else { 0.0 };
        let stddev = variance_sample.sqrt();
        let (skewness, kurtosis_excess) = if m2 > 0.0 {
            (m3 / m2.powf(1.5), m4 / (m2 * m2) - 3.0)
        } else {
            (0.0, 0.0)
        };

        Describe {
            n,
            mean,
            stddev,
            median: median(sample),
            min,
            max,
            kurtosis_excess,
            skewness,
        }
    }
}

/// Median of a sample (average of central pair for even length).
///
/// # Panics
///
/// Panics if `sample` is empty.
pub fn median(sample: &[f64]) -> f64 {
    assert!(!sample.is_empty(), "median of empty sample");
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-finite value in sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Linear-interpolation percentile, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `sample` is empty or `p` is out of range.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    assert!(!sample.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile p out of range");
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-finite value in sample"));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn mean_and_stddev_match_hand_calculation() {
        let d = Describe::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        close(d.mean, 5.0, 1e-12);
        // population sd is 2, sample sd is sqrt(32/7)
        close(d.stddev, (32.0_f64 / 7.0).sqrt(), 1e-12);
        assert_eq!(d.min, 2.0);
        assert_eq!(d.max, 9.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn kurtosis_of_normal_like_sample_is_near_zero() {
        // Deterministic pseudo-normal via sum of uniforms (Irwin–Hall).
        let mut xs = Vec::new();
        let mut state: u64 = 1;
        for _ in 0..20_000 {
            let mut s = 0.0;
            for _ in 0..12 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s += (state >> 11) as f64 / (1u64 << 53) as f64;
            }
            xs.push(s - 6.0);
        }
        let d = Describe::of(&xs);
        assert!(
            d.kurtosis_excess.abs() < 0.15,
            "kurtosis {}",
            d.kurtosis_excess
        );
        assert!(d.skewness.abs() < 0.1, "skewness {}", d.skewness);
    }

    #[test]
    fn kurtosis_of_fat_tailed_sample_is_positive() {
        // Mostly small values with rare huge outliers: a fat right tail like
        // the paper's timedelta distributions.
        let mut xs = vec![1.0; 95];
        xs.extend_from_slice(&[50.0, 60.0, 70.0, 80.0, 90.0]);
        let d = Describe::of(&xs);
        assert!(d.kurtosis_excess > 3.0);
        assert!(d.skewness > 1.0, "right-skewed");
    }

    #[test]
    fn constant_sample_has_zero_spread() {
        let d = Describe::of(&[7.0; 10]);
        assert_eq!(d.stddev, 0.0);
        assert_eq!(d.kurtosis_excess, 0.0);
        assert_eq!(d.skewness, 0.0);
        assert_eq!(d.median, 7.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
        close(percentile(&xs, 25.0), 17.5, 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Describe::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_sample_panics() {
        Describe::of(&[1.0, f64::NAN]);
    }
}
