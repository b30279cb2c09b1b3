//! Paired-samples t-test.
//!
//! Footnote 1 of the paper compares monthly user-reported phishing volumes
//! between March–December 2023 and January–October 2024 with a paired
//! samples t-test, obtaining p = 0.008 and rejecting the null hypothesis at
//! α = 0.05. [`paired_t_test`] reproduces that procedure.

use crate::special::student_t_cdf;
use cb_json::{Deserialize, Serialize};
use std::fmt;

/// The outcome of a paired t-test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TTestResult {
    /// The t statistic (mean difference over its standard error).
    pub t: f64,
    /// Degrees of freedom (n − 1).
    pub df: f64,
    /// Two-sided p-value.
    pub p_two_sided: f64,
    /// Mean of the pairwise differences.
    pub mean_diff: f64,
}

impl TTestResult {
    /// Whether the null hypothesis is rejected at significance `alpha`.
    pub fn rejects_null_at(&self, alpha: f64) -> bool {
        self.p_two_sided < alpha
    }
}

impl fmt::Display for TTestResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t({:.0}) = {:.3}, p = {:.4} (two-sided)",
            self.df, self.t, self.p_two_sided
        )
    }
}

/// Errors from a t-test invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TTestError {
    /// The two samples have different lengths — pairing is undefined.
    UnequalLengths {
        /// Length of the first sample.
        a: usize,
        /// Length of the second sample.
        b: usize,
    },
    /// Fewer than two pairs: no variance can be estimated.
    TooFewPairs(usize),
    /// All pairwise differences are identical, so the standard error is zero.
    ZeroVariance,
}

impl fmt::Display for TTestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TTestError::UnequalLengths { a, b } => {
                write!(f, "paired samples must have equal length ({a} vs {b})")
            }
            TTestError::TooFewPairs(n) => write!(f, "need at least 2 pairs, got {n}"),
            TTestError::ZeroVariance => write!(f, "differences have zero variance"),
        }
    }
}

impl std::error::Error for TTestError {}

/// Run a paired-samples t-test on observations `a[i]` vs `b[i]`.
///
/// # Errors
///
/// Returns [`TTestError`] when the inputs cannot support the test (unequal
/// lengths, fewer than two pairs, or zero variance of differences).
pub fn paired_t_test(a: &[f64], b: &[f64]) -> Result<TTestResult, TTestError> {
    if a.len() != b.len() {
        return Err(TTestError::UnequalLengths {
            a: a.len(),
            b: b.len(),
        });
    }
    let n = a.len();
    if n < 2 {
        return Err(TTestError::TooFewPairs(n));
    }
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let nf = n as f64;
    let mean = diffs.iter().sum::<f64>() / nf;
    let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (nf - 1.0);
    if var == 0.0 {
        return Err(TTestError::ZeroVariance);
    }
    let se = (var / nf).sqrt();
    let t = mean / se;
    let df = nf - 1.0;
    let p_two_sided = 2.0 * (1.0 - student_t_cdf(t.abs(), df));
    Ok(TTestResult {
        t,
        df,
        p_two_sided,
        mean_diff: mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_have_zero_variance() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(paired_t_test(&a, &a), Err(TTestError::ZeroVariance));
    }

    #[test]
    fn constant_shift_is_infinitely_significant() {
        // differences all equal -> zero variance error, so perturb slightly
        let a = [10.0, 20.0, 30.0, 40.0];
        let b = [5.0, 15.1, 24.9, 35.0];
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.t > 10.0);
        assert!(r.p_two_sided < 0.01);
        assert!(r.rejects_null_at(0.05));
    }

    #[test]
    fn known_textbook_example() {
        // Pre/post data checked by hand: differences [4,4,1,2,-3,5],
        // mean 13/6, sample variance 42.8333/5, so
        // t = (13/6) / sqrt(8.5667/6) = 1.8133 with df = 5.
        let pre = [18.0, 21.0, 16.0, 22.0, 19.0, 24.0];
        let post = [22.0, 25.0, 17.0, 24.0, 16.0, 29.0];
        let r = paired_t_test(&post, &pre).unwrap();
        assert!((r.t - 1.8133).abs() < 1e-3, "t = {}", r.t);
        assert!((r.mean_diff - 13.0 / 6.0).abs() < 1e-12);
        assert!(
            (r.p_two_sided - 0.1295).abs() < 3e-3,
            "p = {}",
            r.p_two_sided
        );
        assert!(!r.rejects_null_at(0.05));
    }

    #[test]
    fn noisy_equal_means_not_significant() {
        let a = [10.0, 12.0, 9.0, 11.0, 10.5, 9.5];
        let b = [11.0, 9.0, 12.0, 10.0, 9.5, 10.5];
        let r = paired_t_test(&a, &b).unwrap();
        assert!(r.p_two_sided > 0.5, "p = {}", r.p_two_sided);
    }

    #[test]
    fn unequal_lengths_rejected() {
        assert_eq!(
            paired_t_test(&[1.0], &[1.0, 2.0]),
            Err(TTestError::UnequalLengths { a: 1, b: 2 })
        );
    }

    #[test]
    fn too_few_pairs_rejected() {
        assert_eq!(
            paired_t_test(&[1.0], &[2.0]),
            Err(TTestError::TooFewPairs(1))
        );
    }

    #[test]
    fn sign_of_t_follows_direction() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 3.5, 4.0, 5.5];
        let r1 = paired_t_test(&a, &b).unwrap();
        let r2 = paired_t_test(&b, &a).unwrap();
        assert!(r1.t < 0.0 && r2.t > 0.0);
        assert!((r1.p_two_sided - r2.p_two_sided).abs() < 1e-12);
    }
}
