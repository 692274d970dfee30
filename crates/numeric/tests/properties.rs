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

/// The values where a part changes width: one limb, two limbs (the
/// widest inline value), three limbs.
const EDGES: [u128; 6] = [
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    (1 << 64) - 1,
    1 << 64,
    (1 << 64) + 1,
];

fn from_u128(v: u128) -> BigUint {
    BigUint::from_limbs((0..4).map(|i| (v >> (32 * i)) as u32).collect())
}

fn hash_of(v: &BigUint) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    BuildHasherDefault::<DefaultHasher>::default().hash_one(v)
}

/// A part of one or two limbs drawn by `wide`, or an edge value moved
/// by a small offset: products of two such parts straddle 2⁶⁴ and 2¹²⁸.
fn part(seed: &mut u64, pick: u32) -> BigUint {
    match pick % 3 {
        0 => wide(seed, 1),
        1 => wide(seed, 2),
        _ => {
            let edge = EDGES[(*seed % EDGES.len() as u64) as usize];
            *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            from_u128(edge - 1 + u128::from(pick / 3 % 3))
        }
    }
}

fn signed(negative: bool, mag: BigUint) -> BigInt {
    BigInt::from_sign_mag(
        if negative {
            Sign::Negative
        } else {
            Sign::Positive
        },
        mag,
    )
}

/// `lhs_num / lhs_den == rhs_num / rhs_den`, by cross-multiplication.
fn same_ratio(lhs_num: &BigInt, lhs_den: &BigUint, rhs_num: &BigInt, rhs_den: &BigUint) -> bool {
    lhs_num * &BigInt::from(rhs_den.clone()) == rhs_num * &BigInt::from(lhs_den.clone())
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

    /// Reduction agrees on both sides of 2⁶⁴: scaling both parts of
    /// `n / d` (each below 2⁶⁴, reduced in words) by a common factor of
    /// one to three limbs pushes them into the limb path, which must land
    /// on the same rational — in lowest terms by the limb gcd.
    #[test]
    fn reduction_agrees_across_two_to_the_64(
        (n, d) in (1u64.., 1u64..),
        g_limbs in 1usize..=3,
        seed in any::<u64>(),
        negative in any::<bool>(),
    ) {
        let mut seed = seed;
        let g = wide(&mut seed, g_limbs);
        let (n, d) = (BigUint::from(n), BigUint::from(d));
        let words = BigRational::new(signed(negative, n.clone()), d.clone());
        let limbs = BigRational::new(signed(negative, &n * &g), &d * &g);
        prop_assert_eq!(&words, &limbs);
        prop_assert!(words.numer().magnitude().gcd(words.denom()).is_one());
        prop_assert!(same_ratio(words.numer(), words.denom(), &signed(negative, n), &d));
        prop_assert_eq!(words.numer().is_negative(), negative);
    }

    /// Every edge value is one value however it was built — from a word,
    /// from limbs with trailing zeros, or by arithmetic that crosses the
    /// edge — and so compares, hashes, orders and serializes identically.
    #[test]
    fn edge_values_have_one_representation(offset in any::<u32>(), zeros in 0usize..3) {
        let built: Vec<Vec<BigUint>> = EDGES
            .iter()
            .map(|&v| {
                let big = from_u128(v);
                let mut limbs = big.limbs().to_vec();
                limbs.resize(limbs.len() + zeros, 0);
                let delta = BigUint::from(offset.max(1));
                let shift = u64::from(offset % 70);
                let mut ways = vec![
                    big.clone(),
                    BigUint::from_limbs(limbs),
                    &(&big + &delta) - &delta,
                    (&big * &delta).div_rem(&delta).0,
                    big.shl_bits(shift).shr_bits(shift),
                ];
                if let Ok(word) = u64::try_from(v) {
                    ways.push(BigUint::from(word));
                }
                if let Ok(limb) = u32::try_from(v) {
                    ways.push(BigUint::from(limb));
                }
                ways
            })
            .collect();
        for (i, ways) in built.iter().enumerate() {
            let canonical = &ways[0];
            prop_assert_eq!(canonical.bits(), 128 - EDGES[i].leading_zeros() as u64);
            prop_assert_eq!(canonical.to_u64(), u64::try_from(EDGES[i]).ok());
            for way in ways {
                prop_assert_eq!(way, canonical);
                prop_assert_eq!(way.limbs(), canonical.limbs());
                prop_assert_eq!(hash_of(way), hash_of(canonical));
                prop_assert_eq!(way.cmp(canonical), std::cmp::Ordering::Equal);
            }
            if let Some(next) = built.get(i + 1) {
                for (a, b) in ways.iter().zip(next) {
                    prop_assert!(a < b);
                }
            }
        }
    }

    /// `+`, `−`, `×`, `complement` and `cmp` on rationals whose parts
    /// and products straddle 2⁶⁴ and 2¹²⁸ satisfy the cross-multiplication
    /// identities, and every result is in lowest terms.
    #[test]
    fn rational_arithmetic_straddles_the_word_edges(
        seed in any::<u64>(),
        picks in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        signs in (any::<bool>(), any::<bool>()),
    ) {
        let mut seed = seed;
        let (p, q) = (part(&mut seed, picks.0), part(&mut seed, picks.1));
        let (r, s) = (part(&mut seed, picks.2), part(&mut seed, picks.3));
        let (p, r) = (signed(signs.0, p), signed(signs.1, r));
        let x = BigRational::new(p.clone(), q.clone());
        let y = BigRational::new(r.clone(), s.clone());
        let (ps, rq) = (&p * &BigInt::from(s.clone()), &r * &BigInt::from(q.clone()));
        let qs = &q * &s;
        let q_int = BigInt::from(q.clone());
        let cases = [
            (&x + &y, &ps + &rq, qs.clone()),
            (&x - &y, &ps - &rq, qs.clone()),
            (&x * &y, &p * &r, qs.clone()),
            (x.complement(), &q_int - &p, q.clone()),
        ];
        for (z, num, den) in &cases {
            prop_assert!(same_ratio(z.numer(), z.denom(), num, den), "{} vs {}/{}", z, num, den);
            prop_assert!(z.is_zero() || z.numer().magnitude().gcd(z.denom()).is_one());
        }
        prop_assert_eq!(x.cmp(&y), ps.cmp(&rq));
        prop_assert_eq!(&x * &y, &y * &x);
        prop_assert_eq!(&(&x + &y) - &y, x);
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

    /// Long division meets its definition, `q · d + r == n` with
    /// `r < d`, for dividends of one to eight limbs and divisors of one
    /// to six: random divisors, divisors whose top limb is `0x8000_0000`
    /// (already normalized) or `0xFFFF_FFFF` (the largest estimates), and
    /// divisors just below, equal to and just above the dividend.
    #[test]
    fn biguint_div_rem_meets_its_definition(
        seed in any::<u64>(),
        (n_limbs, d_limbs) in (1usize..=8, 1usize..=6),
        shape in 0u32..6,
    ) {
        let mut seed = seed;
        let mut n = wide(&mut seed, n_limbs);
        let mut d = wide(&mut seed, d_limbs);
        let one = BigUint::one();
        match shape {
            1 | 2 => {
                let mut limbs = d.limbs().to_vec();
                *limbs.last_mut().unwrap() = if shape == 1 { 0x8000_0000 } else { 0xFFFF_FFFF };
                d = BigUint::from_limbs(limbs);
            }
            3 => {
                n = &d + &one;
            }
            4 => n = d.clone(),
            5 => n = &d - &one,
            _ => {}
        }
        prop_assume!(!d.is_zero());
        let (q, r) = n.div_rem(&d);
        prop_assert_eq!(&(&q * &d) + &r, n.clone(), "{} / {}", n, d);
        prop_assert!(r < d, "{} / {}: remainder {}", n, d, r);
    }
}

/// A quotient limb whose corrected estimate is still one too large:
/// `0x8000_0000_0000_0000_0000_0003 / 0x2000_0000_0000_0000_0000_0001`
/// estimates 4 from the top limbs, the multiply-subtract goes negative,
/// and adding the divisor back gives the quotient 3.
#[test]
fn biguint_div_rem_adds_back_an_overestimate() {
    let n = BigUint::from_limbs(vec![3, 0, 0x8000_0000]);
    let d = BigUint::from_limbs(vec![1, 0, 0x2000_0000]);
    let (q, r) = n.div_rem(&d);
    assert_eq!(q, BigUint::from(3u64));
    assert_eq!(r, BigUint::from_limbs(vec![0, 0, 0x2000_0000]));
}
