//! Exact rational numbers: the probability type of the whole project.
//!
//! A [`BigRational`] is kept in lowest terms with a strictly positive
//! denominator, so structural equality coincides with numeric equality —
//! which is what lets the integration tests assert that the extensional,
//! intensional, and brute-force evaluation strategies agree *exactly*.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::{BigInt, BigUint, Sign};

/// An exact rational number, always reduced, with positive denominator.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigRational {
    num: BigInt,
    /// Invariant: nonzero; gcd(|num|, den) = 1; den = 1 when num = 0.
    den: BigUint,
}

impl BigRational {
    /// The value `0`.
    pub fn zero() -> Self {
        BigRational {
            num: BigInt::zero(),
            den: BigUint::one(),
        }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigRational {
            num: BigInt::one(),
            den: BigUint::one(),
        }
    }

    /// Builds `num / den`, reducing to lowest terms.
    ///
    /// Parts below 2⁶⁴ — every one-digit tuple probability — reduce in
    /// machine words: their gcd is taken in `u64`, and parts already in
    /// lowest terms are kept as passed, so no heap is touched. Wider
    /// parts reduce through [`BigUint::gcd`] and [`BigUint::div_rem`].
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return BigRational::zero();
        }
        if let (Some(n), Some(d)) = (num.magnitude().to_u64(), den.to_u64()) {
            let g = gcd_u64(n, d);
            if g == 1 {
                return BigRational { num, den };
            }
            return BigRational {
                num: BigInt::from_sign_mag(num.sign(), BigUint::from(n / g)),
                den: BigUint::from(d / g),
            };
        }
        let g = num.magnitude().gcd(&den);
        let (n, rn) = num.magnitude().div_rem(&g);
        let (d, rd) = den.div_rem(&g);
        debug_assert!(rn.is_zero() && rd.is_zero());
        BigRational {
            num: BigInt::from_sign_mag(num.sign(), n),
            den: d,
        }
    }

    /// Builds from machine integers: `num / den`.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn from_ratio(num: i64, den: u64) -> Self {
        BigRational::new(BigInt::from(num), BigUint::from(den))
    }

    /// Builds from an integer.
    pub fn from_int(v: i64) -> Self {
        BigRational {
            num: BigInt::from(v),
            den: BigUint::one(),
        }
    }

    /// Exact conversion from an IEEE 754 double: every finite `f64` is a
    /// dyadic rational `±m · 2^e`, so the conversion is lossless —
    /// `from_f64(v).unwrap().to_f64() == v` bit for bit. Returns `None`
    /// for NaN and the infinities, which have no rational value.
    ///
    /// This is how the engine's Monte-Carlo estimates (computed in
    /// `f64`) enter the exact-arithmetic API without introducing a
    /// second, hidden rounding: sequential and sharded evaluation stay
    /// bit-identical because the f64 → rational step is injective.
    pub fn from_f64(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(BigRational::zero());
        }
        let bits = v.to_bits();
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // Normal doubles carry an implicit leading mantissa bit;
        // subnormals (exponent field 0) do not, and sit at 2^-1074.
        let (mantissa, exp) = if exp_bits == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), exp_bits - 1075)
        };
        let mag = BigUint::from(mantissa);
        let (num_mag, den) = if exp >= 0 {
            (mag.shl_bits(exp as u64), BigUint::one())
        } else {
            (mag, BigUint::one().shl_bits((-exp) as u64))
        };
        let sign = if bits >> 63 == 1 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        Some(BigRational::new(BigInt::from_sign_mag(sign, num_mag), den))
    }

    /// The numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> &BigUint {
        &self.den
    }

    /// Returns `true` iff the value is `0`.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` iff the value is `1`.
    pub fn is_one(&self) -> bool {
        self.den.is_one() && !self.num.is_negative() && self.num.magnitude().is_one()
    }

    /// Returns `true` iff the value lies in the closed interval `[0, 1]`
    /// (i.e., is a valid probability).
    pub fn is_probability(&self) -> bool {
        !self.num.is_negative() && self.num.magnitude() <= &self.den
    }

    /// `1 - self`; the complement probability.
    pub fn complement(&self) -> BigRational {
        &BigRational::one() - self
    }

    /// The nearest `f64` (ties to even, subnormals included; a value
    /// beyond `f64::MAX` is infinite).
    pub fn to_f64(&self) -> f64 {
        let nbits = self.num.magnitude().bits() as i64;
        let dbits = self.den.bits() as i64;
        if self.is_zero() {
            return 0.0;
        }
        // Fast path for the overwhelmingly common case (tuple
        // probabilities are small fractions): both magnitudes are exactly
        // representable, so one IEEE division is correctly rounded.
        // Crucially this path performs no heap allocation, which
        // is what keeps `Tid::prob_f64` off the profile of the
        // lane-batched evaluation kernel's matrix fills (E21).
        if nbits <= 53 && dbits <= 53 {
            let n = self.num.magnitude().to_u64().expect("fits by bit count") as f64;
            let d = self.den.to_u64().expect("fits by bit count") as f64;
            let v = n / d;
            return if self.num.is_negative() { -v } else { v };
        }
        let v = f64::from_bits(round_quotient(self.num.magnitude(), &self.den));
        if self.num.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> BigRational {
        assert!(!self.is_zero(), "reciprocal of zero");
        BigRational::new(
            BigInt::from_sign_mag(self.num.sign(), self.den.clone()),
            self.num.magnitude().clone(),
        )
    }
}

/// `gcd(a, b)` of two nonzero words (binary gcd: shifts and subtractions).
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// The bits of the `f64` nearest to `n / d` (`n, d > 0`), rounded once.
///
/// One integer division yields a quotient `q` of 55 or 56 bits and a
/// remainder whose only use is a sticky bit. The bits of `q` below the
/// result's unit in the last place — 2 or 3 for a normal result, more
/// for a subnormal one, whose unit is `2⁻¹⁰⁷⁴` — are rounded half to
/// even, with the sticky bit breaking ties. The rounded mantissa and
/// the exponent then assemble into the result's bits exactly; a
/// carry out of the mantissa steps the exponent, and an exponent past
/// the largest finite one gives infinity.
fn round_quotient(n: &BigUint, d: &BigUint) -> u64 {
    const INFINITY: u64 = 0x7ff0_0000_0000_0000;
    // q = ⌊n · 2^s / d⌋ lies in [2⁵⁴, 2⁵⁶).
    let s = d.bits() as i64 - n.bits() as i64 + 55;
    let (q, r) = if s >= 0 {
        n.shl_bits(s as u64).div_rem(d)
    } else {
        n.div_rem(&d.shl_bits((-s) as u64))
    };
    let q = q.to_u64().expect("the quotient has at most 56 bits");
    // n / d = (q + sticky) · 2^-s; its leading bit is 2^top.
    let top = i64::from(q.ilog2()) - s;
    let ulp = (top - 52).max(-1074);
    let drop = ulp + s;
    if drop >= 64 {
        // Below half the smallest subnormal.
        return 0;
    }
    let (kept, rest, half) = (q >> drop, q & ((1 << drop) - 1), 1u64 << (drop - 1));
    let up = rest > half || (rest == half && (!r.is_zero() || kept & 1 == 1));
    // value = (kept + up) · 2^ulp, and kept + up ≤ 2⁵³: a subnormal
    // has exponent field 0 and no hidden bit, a normal one exponent
    // field ulp + 1075 over a hidden 2⁵².
    let field = ulp + 1074;
    if field >= 2046 {
        return INFINITY;
    }
    ((field as u64) << 52) + kept + u64::from(up)
}

impl Default for BigRational {
    fn default() -> Self {
        BigRational::zero()
    }
}

impl Add for &BigRational {
    type Output = BigRational;

    fn add(self, rhs: &BigRational) -> BigRational {
        let num = &(&self.num * &BigInt::from(rhs.den.clone()))
            + &(&rhs.num * &BigInt::from(self.den.clone()));
        BigRational::new(num, &self.den * &rhs.den)
    }
}

impl Sub for &BigRational {
    type Output = BigRational;

    fn sub(self, rhs: &BigRational) -> BigRational {
        self + &(-rhs)
    }
}

impl Mul for &BigRational {
    type Output = BigRational;

    fn mul(self, rhs: &BigRational) -> BigRational {
        BigRational::new(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Div for &BigRational {
    type Output = BigRational;

    /// # Panics
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiplication by the reciprocal
    fn div(self, rhs: &BigRational) -> BigRational {
        self * &rhs.recip()
    }
}

impl Neg for &BigRational {
    type Output = BigRational;

    fn neg(self) -> BigRational {
        BigRational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl PartialOrd for BigRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        let lhs = &self.num * &BigInt::from(other.den.clone());
        let rhs = &other.num * &BigInt::from(self.den.clone());
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            f.pad(&self.num.to_string())
        } else {
            f.pad(&format!("{}/{}", self.num, self.den))
        }
    }
}

impl fmt::Debug for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRational({self})")
    }
}

impl From<i64> for BigRational {
    fn from(v: i64) -> Self {
        BigRational::from_int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn from_f64_is_exact_and_round_trips() {
        // Exactly representable values come back as the obvious ratios.
        assert_eq!(BigRational::from_f64(0.0).unwrap(), BigRational::zero());
        assert_eq!(BigRational::from_f64(1.0).unwrap(), BigRational::one());
        assert_eq!(BigRational::from_f64(0.25).unwrap(), r(1, 4));
        assert_eq!(BigRational::from_f64(-1.5).unwrap(), r(-3, 2));
        // 0.1 is NOT 1/10 in binary; the conversion preserves the true
        // dyadic value, so the round trip is bit-identical.
        let tenth = BigRational::from_f64(0.1).unwrap();
        assert_ne!(tenth, r(1, 10));
        for v in [
            0.1,
            1.0 / 3.0,
            0.123_456_789,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -0.75,
            1e-300,
            1e300,
        ] {
            let q = BigRational::from_f64(v).unwrap();
            assert_eq!(q.to_f64().to_bits(), v.to_bits(), "{v}");
        }
        assert!(BigRational::from_f64(f64::NAN).is_none());
        assert!(BigRational::from_f64(f64::INFINITY).is_none());
        assert!(BigRational::from_f64(f64::NEG_INFINITY).is_none());
    }

    #[test]
    fn reduction_to_lowest_terms() {
        let v = r(6, 8);
        assert_eq!(v.to_string(), "3/4");
        assert_eq!(r(-6, 8).to_string(), "-3/4");
        assert_eq!(r(0, 17).to_string(), "0");
        assert_eq!(r(8, 4).to_string(), "2");
    }

    #[test]
    fn structural_equality_is_numeric_equality() {
        assert_eq!(r(1, 2), r(2, 4));
        assert_eq!(r(-3, 9), r(-1, 3));
        assert_ne!(r(1, 2), r(1, 3));
    }

    #[test]
    fn field_operations() {
        assert_eq!(&r(1, 2) + &r(1, 3), r(5, 6));
        assert_eq!(&r(1, 2) - &r(1, 3), r(1, 6));
        assert_eq!(&r(2, 3) * &r(3, 4), r(1, 2));
        assert_eq!(&r(1, 2) / &r(1, 4), r(2, 1));
        assert_eq!(-&r(1, 2), r(-1, 2));
        assert_eq!(r(3, 7).recip(), r(7, 3));
    }

    #[test]
    fn complement_of_probability() {
        assert_eq!(r(3, 10).complement(), r(7, 10));
        assert_eq!(BigRational::one().complement(), BigRational::zero());
    }

    #[test]
    fn probability_range_check() {
        assert!(r(0, 1).is_probability());
        assert!(r(1, 1).is_probability());
        assert!(r(999, 1000).is_probability());
        assert!(!r(-1, 2).is_probability());
        assert!(!r(3, 2).is_probability());
    }

    #[test]
    fn ordering_cross_multiplies() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == BigRational::one());
    }

    #[test]
    fn to_f64_accuracy() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert!((r(-7, 16).to_f64() + 0.4375).abs() < 1e-15);
        assert_eq!(BigRational::zero().to_f64(), 0.0);
    }

    #[test]
    fn to_f64_rounds_wide_parts_once() {
        // Rounding each part to 64 bits, then to 53, then the quotient
        // gave ...b9 here; the nearest double is ...ba.
        let q = BigRational::new(
            BigInt::from("1115245025920320069776094962".parse::<BigUint>().unwrap()),
            "96496770834113869350581732650365293365".parse().unwrap(),
        );
        assert_eq!(q.to_f64().to_bits(), 0x3da9_6a32_c9ed_71ba);
        assert_eq!((-&q).to_f64().to_bits(), 0xbda9_6a32_c9ed_71ba);
        // Subnormal results round once, at their own precision: 3/2 of
        // the smallest subnormal is a tie that goes to the even 2.
        let tiny = BigUint::one().shl_bits(1075);
        let q = BigRational::new(BigInt::from(3i64), tiny.clone());
        assert_eq!(q.to_f64().to_bits(), 2);
        // Half of the smallest subnormal ties to 0; a hair above it
        // rounds up.
        let half = BigRational::new(BigInt::one(), tiny.clone());
        assert_eq!(half.to_f64().to_bits(), 0);
        let above = BigRational::new(
            BigInt::from(BigUint::one().shl_bits(64).mul_add_u64(1, 1)),
            tiny.shl_bits(64),
        );
        assert_eq!(above.to_f64().to_bits(), 1);
        // Past the largest double.
        let huge = BigRational::new(
            BigInt::from(BigUint::one().shl_bits(1030)),
            BigUint::from(3u64),
        );
        assert_eq!(huge.to_f64(), f64::INFINITY);
    }

    #[test]
    fn to_f64_huge_values_stay_finite() {
        // (2/3)^200: far below f64's minimum positive normal times...
        // actually ~1e-36, fine; also test a huge numerator.
        let mut v = BigRational::one();
        let two_thirds = r(2, 3);
        for _ in 0..200 {
            v = &v * &two_thirds;
        }
        let f = v.to_f64();
        assert!(f > 0.0 && f.is_finite());
        assert!((f.ln() - 200.0 * (2f64 / 3.0).ln()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_rejected() {
        let _ = BigRational::new(BigInt::one(), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_of_zero_panics() {
        let _ = BigRational::zero().recip();
    }
}
