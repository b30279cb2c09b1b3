//! Special functions needed by the t-distribution CDF.
//!
//! Only what the t-test requires: log-gamma (Lanczos approximation, g = 7,
//! n = 9 coefficients) and the regularized incomplete beta function
//! `I_x(a, b)` evaluated with the Lentz modified continued fraction.

/// Lanczos coefficients for g = 7.
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Accuracy is ~1e-13 over the domain the t-test uses (half-integer and
/// integer degrees of freedom up to a few hundred).
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain: x must be positive, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `x` in `[0, 1]`.
///
/// # Panics
///
/// Panics if `x` is outside `[0, 1]` or `a`/`b` are not positive.
pub fn betai(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&x),
        "betai domain: x in [0,1], got {x}"
    );
    assert!(a > 0.0 && b > 0.0, "betai domain: a,b > 0");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    // The continued fraction converges fast only for x below (a+1)/(a+b+2);
    // use the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) otherwise. The comparison
    // must be inclusive: at exactly the threshold (e.g. a = b = 0.5, x = 0.5)
    // a strict `<` would bounce between the two branches forever.
    if x <= (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - betai(b, a, 1.0 - x)
    }
}

/// Lentz's algorithm for the continued-fraction part of the incomplete beta.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // even step
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // odd step
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of Student's t distribution with `df` degrees of freedom.
///
/// # Panics
///
/// Panics if `df <= 0`.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    let x = df / (df + t * t);
    let p = 0.5 * betai(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24.0_f64.ln(), 1e-10); // Γ(5) = 24
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
        close(ln_gamma(10.5), 1_133_278.388_948_441_4_f64.ln(), 1e-8); // Γ(10.5)
    }

    #[test]
    fn betai_boundaries_and_symmetry() {
        close(betai(2.0, 3.0, 0.0), 0.0, 1e-15);
        close(betai(2.0, 3.0, 1.0), 1.0, 1e-15);
        // I_x(1,1) = x
        close(betai(1.0, 1.0, 0.37), 0.37, 1e-12);
        // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
        let v = betai(2.5, 4.0, 0.3);
        close(v, 1.0 - betai(4.0, 2.5, 0.7), 1e-12);
    }

    #[test]
    fn betai_closed_form_small_integer() {
        // I_x(2,2) = x^2 (3 - 2x)
        let x: f64 = 0.4;
        close(betai(2.0, 2.0, x), x * x * (3.0 - 2.0 * x), 1e-12);
    }

    #[test]
    fn t_cdf_reference_points() {
        // Standard references: t=0 -> 0.5 for any df.
        close(student_t_cdf(0.0, 5.0), 0.5, 1e-12);
        // df=1 (Cauchy): CDF(1) = 0.75.
        close(student_t_cdf(1.0, 1.0), 0.75, 1e-10);
        // df=10, t=2.228 is the 97.5th percentile.
        close(student_t_cdf(2.228, 10.0), 0.975, 5e-4);
        // df=9, t=3.25 is roughly the 99.5th percentile (two-sided p=0.01).
        close(student_t_cdf(3.25, 9.0), 0.995, 5e-4);
        // Symmetry
        close(
            student_t_cdf(-1.7, 7.0),
            1.0 - student_t_cdf(1.7, 7.0),
            1e-12,
        );
    }

    #[test]
    fn t_cdf_large_df_approaches_normal() {
        // Φ(1.96) ≈ 0.975
        close(student_t_cdf(1.96, 10_000.0), 0.975, 1e-3);
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn betai_rejects_out_of_range_x() {
        betai(1.0, 1.0, 1.5);
    }
}
