//! Reed–Solomon codec over GF(2⁸) as used by QR codes (narrow-sense,
//! generator roots α⁰ … α^(n−k−1)).
//!
//! Encoding is polynomial long division by the generator; decoding runs
//! syndromes → Berlekamp–Massey → Chien search → Forney, correcting up to
//! ⌊ec/2⌋ byte errors per block.

use crate::gf256 as gf;

/// Build the degree-`ec` generator polynomial ∏(x − αⁱ), i = 0..ec.
pub fn generator(ec: usize) -> Vec<u8> {
    let mut g = vec![1u8];
    for i in 0..ec {
        g = gf::poly_mul(&g, &[1, gf::exp(i)]);
    }
    g
}

/// Compute `ec` parity bytes for `data`.
pub fn encode(data: &[u8], ec: usize) -> Vec<u8> {
    let gen = generator(ec);
    // Long division of data·x^ec by gen; remainder is the parity.
    let mut rem = vec![0u8; ec];
    for &d in data {
        let factor = gf::add(d, rem[0]);
        rem.rotate_left(1);
        rem[ec - 1] = 0;
        if factor != 0 {
            for (r, &g) in rem.iter_mut().zip(&gen[1..]) {
                *r = gf::add(*r, gf::mul(g, factor));
            }
        }
    }
    rem
}

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsDecodeError {
    /// How many errors the locator implied (0 means "locator inconsistent").
    pub implied_errors: usize,
}

impl std::fmt::Display for RsDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reed-solomon decode failed (implied errors: {})",
            self.implied_errors
        )
    }
}

impl std::error::Error for RsDecodeError {}

/// Correct a full codeword (`data ‖ parity`) in place.
///
/// Returns the number of byte errors corrected.
///
/// # Errors
///
/// Returns [`RsDecodeError`] when more than ⌊ec/2⌋ errors are present.
pub fn correct(codeword: &mut [u8], ec: usize) -> Result<usize, RsDecodeError> {
    // Syndromes S_i = c(alpha^i).
    let syndromes: Vec<u8> = (0..ec)
        .map(|i| gf::poly_eval(codeword, gf::exp(i)))
        .collect();
    if syndromes.iter().all(|&s| s == 0) {
        return Ok(0);
    }

    // Berlekamp–Massey: find error-locator polynomial sigma (lowest-degree
    // first here for convenience).
    let mut sigma = vec![1u8]; // current locator, ascending powers
    let mut prev = vec![1u8];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut b = 1u8;
    for n in 0..ec {
        // discrepancy
        let mut d = syndromes[n];
        for i in 1..=l {
            if i < sigma.len() {
                d = gf::add(d, gf::mul(sigma[i], syndromes[n - i]));
            }
        }
        if d == 0 {
            m += 1;
        } else if 2 * l <= n {
            let t = sigma.clone();
            let coef = gf::div(d, b);
            // sigma = sigma - coef * x^m * prev
            let mut shifted = vec![0u8; m];
            shifted.extend(prev.iter().map(|&p| gf::mul(p, coef)));
            if shifted.len() > sigma.len() {
                sigma.resize(shifted.len(), 0);
            }
            for (s, &v) in sigma.iter_mut().zip(&shifted) {
                *s = gf::add(*s, v);
            }
            l = n + 1 - l;
            prev = t;
            b = d;
            m = 1;
        } else {
            let coef = gf::div(d, b);
            let mut shifted = vec![0u8; m];
            shifted.extend(prev.iter().map(|&p| gf::mul(p, coef)));
            if shifted.len() > sigma.len() {
                sigma.resize(shifted.len(), 0);
            }
            for (s, &v) in sigma.iter_mut().zip(&shifted) {
                *s = gf::add(*s, v);
            }
            m += 1;
        }
    }
    let num_errors = l;
    if num_errors * 2 > ec {
        return Err(RsDecodeError {
            implied_errors: num_errors,
        });
    }

    // Chien search: roots of sigma give error positions. With codeword
    // positions numbered j = 0..n-1 from the *first* byte, the locator roots
    // are X_k^{-1} where X_k = alpha^{n-1-j}.
    let n = codeword.len();
    let mut error_positions = Vec::new();
    for j in 0..n {
        let xk_inv = gf::exp((255 - (n - 1 - j)) % 255);
        // evaluate sigma (ascending) at xk_inv
        let mut acc = 0u8;
        for (i, &c) in sigma.iter().enumerate() {
            acc = gf::add(acc, gf::mul(c, gf::exp((gf_log_checked(xk_inv) * i) % 255)));
        }
        if acc == 0 {
            error_positions.push(j);
        }
    }
    if error_positions.len() != num_errors {
        return Err(RsDecodeError {
            implied_errors: num_errors,
        });
    }

    // Forney: error magnitudes. Omega = (S(x) * sigma(x)) mod x^ec, with
    // S(x) = sum S_i x^i (ascending).
    let mut omega = vec![0u8; ec];
    for (i, &s) in syndromes.iter().enumerate() {
        for (j, &c) in sigma.iter().enumerate() {
            if i + j < ec {
                omega[i + j] = gf::add(omega[i + j], gf::mul(s, c));
            }
        }
    }
    // sigma' (formal derivative; in GF(2) only odd-power terms survive)
    let sigma_deriv: Vec<u8> = sigma
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &c)| if i % 2 == 1 { c } else { 0 })
        .collect(); // coefficient of x^{i-1}

    for &j in &error_positions {
        let xk = gf::exp((n - 1 - j) % 255);
        let xk_inv = gf::inv(xk);
        let omega_val = eval_ascending(&omega, xk_inv);
        let deriv_val = eval_ascending(&sigma_deriv, xk_inv);
        if deriv_val == 0 {
            return Err(RsDecodeError {
                implied_errors: num_errors,
            });
        }
        // Forney with b = 0: magnitude = Xk^(1-b) * Omega(Xk^-1) / sigma'(Xk^-1)
        let magnitude = gf::mul(xk, gf::div(omega_val, deriv_val));
        codeword[j] = gf::add(codeword[j], magnitude);
    }

    // Verify: recompute syndromes.
    for i in 0..ec {
        if gf::poly_eval(codeword, gf::exp(i)) != 0 {
            return Err(RsDecodeError {
                implied_errors: num_errors,
            });
        }
    }
    Ok(num_errors)
}

fn gf_log_checked(x: u8) -> usize {
    if x == 0 {
        0
    } else {
        gf::log(x)
    }
}

/// Evaluate an ascending-coefficient polynomial at `x`.
fn eval_ascending(coeffs: &[u8], x: u8) -> u8 {
    let mut acc = 0u8;
    for &c in coeffs.iter().rev() {
        acc = gf::add(gf::mul(acc, x), c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_degree_and_leading_coefficient() {
        for ec in [7, 10, 13, 17, 22, 30] {
            let g = generator(ec);
            assert_eq!(g.len(), ec + 1);
            assert_eq!(g[0], 1);
        }
    }

    #[test]
    fn known_qr_parity_vector() {
        // The canonical "HELLO WORLD" v1-M test vector (thonky.com QR
        // tutorial): these data codewords yield EC codewords
        // 196 35 39 119 235 215 231 226 93 23. Cross-checked against an
        // independent naive polynomial long division.
        let data = [
            0x20, 0x5B, 0x0B, 0x78, 0xD1, 0x72, 0xDC, 0x4D, 0x43, 0x40, 0xEC, 0x11, 0xEC, 0x11,
            0xEC, 0x11,
        ];
        let parity = encode(&data, 10);
        assert_eq!(
            parity,
            vec![0xC4, 0x23, 0x27, 0x77, 0xEB, 0xD7, 0xE7, 0xE2, 0x5D, 0x17]
        );
    }

    #[test]
    fn clean_codeword_needs_no_correction() {
        let data = b"The quick brown fox".to_vec();
        let parity = encode(&data, 8);
        let mut cw = data.clone();
        cw.extend(&parity);
        assert_eq!(correct(&mut cw, 8), Ok(0));
        assert_eq!(&cw[..data.len()], &data[..]);
    }

    #[test]
    fn corrects_up_to_half_ec_errors() {
        let data: Vec<u8> = (0..40).collect();
        let ec = 16;
        let parity = encode(&data, ec);
        let mut cw = data.clone();
        cw.extend(&parity);
        // flip 8 bytes (= ec/2) scattered through data and parity
        for (i, pos) in [0usize, 5, 11, 19, 23, 39, 42, 55].iter().enumerate() {
            cw[*pos] ^= (i as u8) + 1;
        }
        let fixed = correct(&mut cw, ec).expect("should correct 8 errors");
        assert_eq!(fixed, 8);
        assert_eq!(&cw[..40], &data[..]);
    }

    #[test]
    fn too_many_errors_fail() {
        let data: Vec<u8> = (0..30).collect();
        let ec = 10;
        let parity = encode(&data, ec);
        let mut cw = data;
        cw.extend(&parity);
        for pos in [0usize, 3, 6, 9, 12, 15, 18] {
            cw[pos] ^= 0xA5; // 7 errors > ec/2 = 5
        }
        assert!(correct(&mut cw, ec).is_err());
    }

    #[test]
    fn single_error_in_every_position_is_corrected() {
        let data: Vec<u8> = vec![7, 99, 250, 0, 13];
        let ec = 4;
        let parity = encode(&data, ec);
        let clean: Vec<u8> = data.iter().chain(&parity).copied().collect();
        for pos in 0..clean.len() {
            let mut cw = clean.clone();
            cw[pos] ^= 0x42;
            assert_eq!(correct(&mut cw, ec), Ok(1), "position {pos}");
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn parity_of_empty_data_is_zero() {
        assert_eq!(encode(&[], 4), vec![0, 0, 0, 0]);
    }
}
