//! Property-based tests: the rational type must behave as the field ℚ,
//! and the integer types as ℤ — cross-checked against native 128-bit
//! arithmetic on values inside its range.

use intext_numeric::{binomial, BigInt, BigRational, BigUint, Sign};
use proptest::prelude::*;

fn rat(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d.max(1))
}

proptest! {
    #[test]
    fn biguint_add_mul_match_u128(a in any::<u64>(), b in any::<u64>()) {
        let (x, y) = (BigUint::from(a), BigUint::from(b));
        prop_assert_eq!((&x + &y).to_string(), (u128::from(a) + u128::from(b)).to_string());
        prop_assert_eq!((&x * &y).to_string(), (u128::from(a) * u128::from(b)).to_string());
    }

    #[test]
    fn biguint_div_rem_invariant(a in any::<u64>(), b in 1u64..) {
        let (q, r) = BigUint::from(a).div_rem(&BigUint::from(b));
        prop_assert_eq!(q.to_u64(), Some(a / b));
        prop_assert_eq!(r.to_u64(), Some(a % b));
    }

    #[test]
    fn biguint_gcd_divides_both(a in any::<u32>(), b in any::<u32>()) {
        let g = BigUint::from(u64::from(a)).gcd(&BigUint::from(u64::from(b)));
        if let Some(g) = g.to_u64() {
            if g != 0 {
                prop_assert_eq!(u64::from(a) % g, 0);
                prop_assert_eq!(u64::from(b) % g, 0);
            } else {
                prop_assert_eq!((a, b), (0, 0));
            }
        }
    }

    #[test]
    fn bigint_ring_laws(a in -1000i64..1000, b in -1000i64..1000, c in -1000i64..1000) {
        let (x, y, z) = (BigInt::from(a), BigInt::from(b), BigInt::from(c));
        // Commutativity and associativity of +, distributivity of *.
        prop_assert_eq!(&x + &y, &y + &x);
        prop_assert_eq!(&(&x + &y) + &z, &x + &(&y + &z));
        prop_assert_eq!(&x * &(&y + &z), &(&x * &y) + &(&x * &z));
        prop_assert_eq!(&x + &(-&x), BigInt::zero());
    }

    #[test]
    fn rational_field_laws(
        (an, ad) in (-50i64..50, 1u64..50),
        (bn, bd) in (-50i64..50, 1u64..50),
        (cn, cd) in (-50i64..50, 1u64..50),
    ) {
        let (a, b, c) = (rat(an, ad), rat(bn, bd), rat(cn, cd));
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a - &a, BigRational::zero());
        if !b.is_zero() {
            prop_assert_eq!(&(&a / &b) * &b, a.clone());
        }
    }

    #[test]
    fn rational_reduction_invariant(n in -10_000i64..10_000, d in 1u64..10_000) {
        let r = rat(n, d);
        // gcd(|num|, den) = 1.
        let g = r.numer().magnitude().gcd(r.denom());
        prop_assert!(g.is_one() || r.is_zero());
    }

    #[test]
    fn complement_is_involutive_on_probabilities(n in 0i64..100, d in 1u64..100) {
        prop_assume!(n as u64 <= d);
        let p = rat(n, d);
        prop_assert!(p.is_probability());
        prop_assert_eq!(p.complement().complement(), p);
    }

    #[test]
    fn ordering_matches_f64(a in (-100i64..100, 1u64..100), b in (-100i64..100, 1u64..100)) {
        let (x, y) = (rat(a.0, a.1), rat(b.0, b.1));
        let (fx, fy) = (x.to_f64(), y.to_f64());
        if (fx - fy).abs() > 1e-9 {
            prop_assert_eq!(x < y, fx < fy);
        }
    }

    #[test]
    fn binomial_row_sums_to_power_of_two(n in 0u64..30) {
        let mut acc = BigUint::zero();
        for k in 0..=n {
            acc = &acc + &binomial(n, k);
        }
        prop_assert_eq!(acc.to_u64(), Some(1u64 << n));
    }
}

/// A `limbs`-limb integer with a nonzero top limb, drawn from `seed`
/// by SplitMix64.
fn wide(seed: &mut u64, limbs: usize) -> BigUint {
    let mut next = || {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u32
    };
    let mut v: Vec<u32> = (0..limbs).map(|_| next()).collect();
    v[limbs - 1] |= 1 << (next() % 32);
    BigUint::from_limbs(v)
}

/// `|a − b|`.
fn distance(a: &BigRational, b: &BigRational) -> BigRational {
    let d = a - b;
    if d.numer().is_negative() {
        -&d
    } else {
        d
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

    /// `to_f64` is the nearest double: no neighbour of its result is
    /// closer to the exact value, and a tie lands on an even mantissa.
    /// Parts of one to six limbs (at least one wider than 53 bits), both
    /// signs, values above one, and tiny values down into the subnormal
    /// range; every comparison is exact, through `from_f64`.
    #[test]
    fn to_f64_is_correctly_rounded(
        seed in any::<u64>(),
        (num_limbs, den_limbs) in (1usize..=6, 2usize..=6),
        negative in any::<bool>(),
        shape in 0u32..3,
    ) {
        let mut seed = seed;
        let (mut num, mut den) = (wide(&mut seed, num_limbs), wide(&mut seed, den_limbs));
        match shape {
            // Greater than one.
            1 if num < den => std::mem::swap(&mut num, &mut den),
            // Tiny: 2^-1000 to 2^-1130 times a ratio of wide parts,
            // through the subnormal range and below it.
            2 => den = den.shl_bits(1000 + u64::from(seed as u32 % 131)),
            _ => {}
        }
        let sign = if negative { Sign::Negative } else { Sign::Positive };
        let q = BigRational::new(BigInt::from_sign_mag(sign, num), den);
        let x = q.to_f64();
        prop_assert!(x.is_finite());
        let magnitude = distance(&q, &BigRational::zero());
        let bits = x.abs().to_bits();
        let err = distance(&magnitude, &BigRational::from_f64(x.abs()).unwrap());
        for neighbour in [bits.saturating_sub(1), bits + 1] {
            let other = BigRational::from_f64(f64::from_bits(neighbour)).unwrap();
            let other_err = distance(&magnitude, &other);
            prop_assert!(err <= other_err, "{q}: {bits:#x} is farther than {neighbour:#x}");
            if err == other_err {
                prop_assert_eq!(bits & 1, 0, "{}: a tie must round to even", q);
            }
        }
        prop_assert_eq!(x.is_sign_negative(), negative);
    }
}
