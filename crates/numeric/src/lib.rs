//! Exact arbitrary-precision arithmetic for probabilistic query evaluation.
//!
//! Probabilistic databases annotate tuples with *rational* probabilities
//! (Monet 2020, Section 2), and the whole point of cross-validating three
//! different evaluation strategies (brute force, extensional lifted
//! inference, and intensional d-D compilation) is that they must agree
//! *exactly* — floating point would hide genuine disagreements behind
//! rounding. This crate provides the minimal exact tower needed:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers (32-bit limbs);
//!   a value below 2⁶⁴ keeps its limbs inline, with no heap allocation,
//! * [`BigInt`] — signed wrapper,
//! * [`BigRational`] — always-reduced fractions, the probability type;
//!   [`BigRational::new`] reduces parts below 2⁶⁴ with a `u64` gcd and
//!   keeps parts already in lowest terms as passed, so a one-digit tuple
//!   probability is built, decoded and dropped in machine words,
//! * [`ProbNum`] — the number trait every probability pass is written
//!   against once, implemented for `BigRational` (the exact oracles),
//!   [`Residues`] (exact answers, one block of word-size primes per
//!   pass), `f64` (served answers) and `[f64; N]` (the lane kernel's
//!   scenario blocks),
//! * [`ResidueCrt`] — rebuilds an exact probability from one modular
//!   pass per prime block: `D = ∏` denominators, the residues of
//!   `N = P · D` combined by CRT, `N / D` reduced once; a `D` wider than
//!   the prime table has no plan and its pass runs in `BigRational`,
//! * [`binomial`] — exact binomial coefficients (used to check the paper's
//!   footnote 6: the number of Boolean functions with zero Euler
//!   characteristic is `sum_j C(2^k, j)^2 = C(2^(k+1), 2^k)`).
//!
//! Everything is implemented from scratch on `std`; the approved
//! dependency set for this project contains no bignum crate, and the sizes
//! involved (probabilities over a few hundred tuples, binomials up to
//! `C(131072, 65536)`) are comfortably handled by schoolbook algorithms.

mod bigint;
mod biguint;
mod prob_num;
mod rational;
mod residue;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use prob_num::ProbNum;
pub use rational::BigRational;
pub use residue::{BlockWalk, ResidueCrt, Residues, RESIDUE_BLOCKS, RESIDUE_LANES};

/// Computes the exact binomial coefficient `C(n, k)`.
///
/// Runs the usual multiplicative formula with an exact division at every
/// step (the intermediate value after multiplying by `n - k + i` is always
/// divisible by `i`).
///
/// ```
/// use intext_numeric::binomial;
/// assert_eq!(binomial(6, 3).to_string(), "20");
/// assert_eq!(binomial(0, 0).to_string(), "1");
/// ```
pub fn binomial(n: u64, k: u64) -> BigUint {
    if k > n {
        return BigUint::zero();
    }
    let k = k.min(n - k);
    let mut acc = BigUint::from(1u64);
    for i in 1..=k {
        acc = &acc * &BigUint::from(n - k + i);
        let (q, r) = acc.div_rem_u32(u32::try_from(i).expect("binomial index fits in u32"));
        debug_assert_eq!(r, 0, "binomial intermediate must divide exactly");
        acc = q;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        let expect = [
            (0, 0, "1"),
            (1, 0, "1"),
            (1, 1, "1"),
            (4, 2, "6"),
            (10, 5, "252"),
            (16, 8, "12870"),
            (52, 5, "2598960"),
        ];
        for (n, k, s) in expect {
            assert_eq!(binomial(n, k).to_string(), s, "C({n},{k})");
        }
    }

    #[test]
    fn binomial_out_of_range_is_zero() {
        assert!(binomial(3, 4).is_zero());
    }

    #[test]
    fn binomial_symmetry() {
        for n in 0..20u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k));
            }
        }
    }

    #[test]
    fn binomial_pascal_rule() {
        for n in 1..25u64 {
            for k in 1..n {
                let lhs = binomial(n, k);
                let rhs = &binomial(n - 1, k - 1) + &binomial(n - 1, k);
                assert_eq!(lhs, rhs, "Pascal rule at ({n},{k})");
            }
        }
    }

    #[test]
    fn binomial_large_value_matches_known_digit_count() {
        // C(131072, 65536) is the footnote-6 count for k = 16; we only
        // sanity-check its decimal length here (39,457 digits per the
        // closed form log10 estimate) to keep the test fast.
        let c = binomial(1 << 12, 1 << 11);
        let digits = c.to_string().len();
        // log10(C(4096,2048)) ~ 1229.0
        assert!((1225..=1235).contains(&digits), "got {digits} digits");
    }
}
