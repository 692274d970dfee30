//! Arbitrary-precision unsigned integers with 32-bit limbs.
//!
//! Little-endian limb order, always normalized (no trailing zero limbs; the
//! empty limb vector is zero). A value below 2⁶⁴ — every one-digit tuple
//! probability's numerator and denominator — keeps its at most two limbs
//! inline, so building, cloning and dropping it touches no heap; wider
//! values keep a limb vector. Schoolbook algorithms throughout: the
//! operands in this project are at most a few thousand bits, far below the
//! crossover where Karatsuba would pay off.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Mul, Shl, Sub};

/// An arbitrary-precision unsigned integer.
#[derive(Clone)]
pub struct BigUint {
    repr: Repr,
}

/// The storage of a [`BigUint`], canonical for its value: a value below
/// 2⁶⁴ is always `Inline`, so equal values have equal representations.
#[derive(Clone)]
enum Repr {
    /// A value below 2⁶⁴: its normalized limb count (0, 1 or 2) and its
    /// limbs, zero past the count.
    Inline(u8, [u32; 2]),
    /// A value of 2⁶⁴ or more: three or more little-endian limbs, the
    /// last one nonzero.
    Heap(Vec<u32>),
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint::from(0u64)
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint::from(1u64)
    }

    /// Returns `true` iff the value is `0`.
    pub fn is_zero(&self) -> bool {
        self.limbs().is_empty()
    }

    /// Returns `true` iff the value is `1`.
    pub fn is_one(&self) -> bool {
        self.limbs() == [1]
    }

    /// Builds from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u32>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match *limbs {
            [] => BigUint::zero(),
            [lo] => BigUint::from(lo),
            [lo, hi] => BigUint::from(u64::from(lo) | (u64::from(hi) << 32)),
            _ => BigUint {
                repr: Repr::Heap(limbs),
            },
        }
    }

    /// The little-endian 32-bit limbs, normalized (no trailing zeros, so
    /// zero is the empty slice). Round-trips through
    /// [`from_limbs`](Self::from_limbs) losslessly — the serialization
    /// form wire codecs use.
    pub fn limbs(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline(len, limbs) => &limbs[..usize::from(*len)],
            Repr::Heap(limbs) => limbs,
        }
    }

    /// Number of significant bits (`0` for zero).
    pub fn bits(&self) -> u64 {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() as u64 - 1) * 32 + (32 - u64::from(top.leading_zeros())),
        }
    }

    /// Tests bit `i` (little-endian position).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 32) as usize;
        self.limbs()
            .get(limb)
            .is_some_and(|&w| (w >> (i % 32)) & 1 == 1)
    }

    /// Converts to `u64`, returning `None` on overflow.
    pub fn to_u64(&self) -> Option<u64> {
        match self.repr {
            Repr::Inline(_, [lo, hi]) => Some(u64::from(lo) | (u64::from(hi) << 32)),
            Repr::Heap(_) => None,
        }
    }

    /// Lossy conversion to `f64` with correct magnitude even for values far
    /// beyond `u64` (uses the top 64 bits plus a power-of-two scale).
    pub fn to_f64(&self) -> f64 {
        let bits = self.bits();
        if bits == 0 {
            return 0.0;
        }
        if bits <= 64 {
            return self.to_u64().expect("fits by bit count") as f64;
        }
        // Take the top 64 bits and scale.
        let shift = bits - 64;
        let mut top: u64 = 0;
        for i in (0..64).rev() {
            top = (top << 1) | u64::from(self.bit(shift + i));
        }
        let scale = shift as i32;
        (top as f64) * 2f64.powi(scale)
    }

    /// Shifts right by `n` bits, discarding the low-order bits.
    pub fn shr_bits(&self, n: u64) -> BigUint {
        if n >= self.bits() {
            return BigUint::zero();
        }
        let limb_shift = (n / 32) as usize;
        let bit_shift = (n % 32) as u32;
        let src = &self.limbs()[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        for (i, &w) in src.iter().enumerate() {
            let mut v = w >> bit_shift;
            if bit_shift > 0 {
                if let Some(&hi) = src.get(i + 1) {
                    v |= hi << (32 - bit_shift);
                }
            }
            limbs.push(v);
        }
        BigUint::from_limbs(limbs)
    }

    /// Shifts left by `n` bits.
    pub fn shl_bits(&self, n: u64) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (n / 32) as usize;
        let bit_shift = (n % 32) as u32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(self.limbs());
        } else {
            let mut carry = 0u32;
            for &w in self.limbs() {
                out.push((w << bit_shift) | carry);
                carry = w >> (32 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Shifts right by one bit in place (used by binary GCD).
    fn shr1(&mut self) {
        let Repr::Heap(limbs) = &mut self.repr else {
            *self = BigUint::from(self.to_u64().expect("an inline value fits a u64") >> 1);
            return;
        };
        let mut carry = 0u32;
        for w in limbs.iter_mut().rev() {
            let new_carry = *w & 1;
            *w = (*w >> 1) | (carry << 31);
            carry = new_carry;
        }
        if limbs.last() == Some(&0) {
            // Three limbs can shift down to two, which are stored inline.
            *self = BigUint::from_limbs(std::mem::take(limbs));
        }
    }

    /// Returns `true` iff the value is even (zero counts as even).
    fn is_even(&self) -> bool {
        self.limbs().first().is_none_or(|&w| w & 1 == 0)
    }

    /// Greatest common divisor (binary GCD: shifts and subtractions only).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let mut a = self.clone();
        let mut b = other.clone();
        let mut shift = 0u64;
        while a.is_even() && b.is_even() {
            a.shr1();
            b.shr1();
            shift += 1;
        }
        while a.is_even() {
            a.shr1();
        }
        loop {
            while b.is_even() {
                b.shr1();
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = &b - &a;
            if b.is_zero() {
                break;
            }
        }
        a.shl_bits(shift)
    }

    /// Divides by a single 32-bit limb, returning `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn div_rem_u32(&self, d: u32) -> (BigUint, u32) {
        assert!(d != 0, "division by zero");
        let d64 = u64::from(d);
        let mut out = vec![0u32; self.limbs().len()];
        let mut rem: u64 = 0;
        for (i, &w) in self.limbs().iter().enumerate().rev() {
            let cur = (rem << 32) | u64::from(w);
            out[i] = (cur / d64) as u32;
            rem = cur % d64;
        }
        (BigUint::from_limbs(out), rem as u32)
    }

    /// `self mod m`: the residue the exact-walk reconstruction reads off
    /// denominators, numerators and partial CRT values.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "division by zero");
        let m = u128::from(m);
        self.limbs().iter().rev().fold(0u64, |rem, &w| {
            (((u128::from(rem) << 32) | u128::from(w)) % m) as u64
        })
    }

    /// `self · m + a` in one pass over the limbs.
    pub fn mul_add_u64(&self, m: u64, a: u64) -> BigUint {
        let mut out = Vec::with_capacity(self.limbs().len() + 3);
        let mut carry = u128::from(a);
        for &w in self.limbs() {
            let cur = u128::from(w) * u128::from(m) + carry;
            out.push(cur as u32);
            carry = cur >> 32;
        }
        while carry != 0 {
            out.push(carry as u32);
            carry >>= 32;
        }
        BigUint::from_limbs(out)
    }

    /// Long division: returns `(quotient, remainder)`.
    ///
    /// Schoolbook long division on 32-bit limbs (Knuth, TAOCP vol. 2,
    /// §4.3.1, Algorithm D), `O(limbs(self) · limbs(divisor))`: each
    /// quotient limb is estimated from the remainder's top two limbs and
    /// the divisor's top limb in `u64`, corrected with the next limb,
    /// then multiplied and subtracted; an estimate still one too large
    /// shows as a negative remainder and is undone by adding the divisor
    /// back. A one-limb divisor takes [`div_rem_u32`](Self::div_rem_u32).
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if let &[d] = divisor.limbs() {
            let (q, r) = self.div_rem_u32(d);
            return (q, BigUint::from(r));
        }
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        // Normalize: shift both sides so that the divisor's top limb has
        // its high bit set, which makes each estimate at most two too
        // large. The dividend gains one limb for the shifted-out bits.
        let shift = divisor.limbs().last().map_or(0, |top| top.leading_zeros());
        let shifted = |limbs: &[u32]| -> Vec<u32> {
            let mut out = Vec::with_capacity(limbs.len() + 1);
            let mut carry = 0u32;
            for &w in limbs {
                let x = u64::from(w) << shift;
                out.push(x as u32 | carry);
                carry = (x >> 32) as u32;
            }
            out.push(carry);
            out
        };
        let mut v = shifted(divisor.limbs());
        v.pop();
        let mut u = shifted(self.limbs());
        let n = v.len();
        let (v1, v2) = (u64::from(v[n - 1]), u64::from(v[n - 2]));
        let mut q = vec![0u32; u.len() - n];
        for j in (0..q.len()).rev() {
            let top = u64::from(u[j + n]) << 32 | u64::from(u[j + n - 1]);
            let (mut qhat, mut rhat) = (top / v1, top % v1);
            while qhat >> 32 != 0 || qhat * v2 > (rhat << 32 | u64::from(u[j + n - 2])) {
                qhat -= 1;
                rhat += v1;
                if rhat >> 32 != 0 {
                    break;
                }
            }
            // u[j..=j+n] -= qhat · v, carrying the product's high half
            // and the borrow together.
            let mut k: i64 = 0;
            for i in 0..n {
                let p = qhat * u64::from(v[i]);
                let t = i64::from(u[i + j]) - k - i64::from(p as u32);
                u[i + j] = t as u32;
                k = (p >> 32) as i64 - (t >> 32);
            }
            let t = i64::from(u[j + n]) - k;
            u[j + n] = t as u32;
            if t < 0 {
                qhat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let s = u64::from(u[i + j]) + u64::from(v[i]) + carry;
                    u[i + j] = s as u32;
                    carry = s >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u32);
            }
            q[j] = qhat as u32;
        }
        u.truncate(n);
        (
            BigUint::from_limbs(q),
            BigUint::from_limbs(u).shr_bits(u64::from(shift)),
        )
    }

    /// `self^exp` by repeated squaring.
    pub fn pow(&self, mut exp: u64) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }
}

impl Default for BigUint {
    fn default() -> Self {
        BigUint::zero()
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(u64::from(v))
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        let len = (64 - v.leading_zeros()).div_ceil(32) as u8;
        BigUint {
            repr: Repr::Inline(len, [v as u32, (v >> 32) as u32]),
        }
    }
}

impl PartialEq for BigUint {
    fn eq(&self, other: &Self) -> bool {
        self.limbs() == other.limbs()
    }
}

impl Eq for BigUint {}

impl Hash for BigUint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        let (lhs, rhs) = (self.limbs(), other.limbs());
        match lhs.len().cmp(&rhs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in lhs.iter().rev().zip(rhs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl Add for &BigUint {
    type Output = BigUint;

    fn add(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs().len() >= rhs.limbs().len() {
            (self.limbs(), rhs.limbs())
        } else {
            (rhs.limbs(), self.limbs())
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let s = u64::from(l) + u64::from(short.get(i).copied().unwrap_or(0)) + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        BigUint::from_limbs(out)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;

    /// # Panics
    /// Panics on underflow (`self < rhs`).
    fn sub(self, rhs: &BigUint) -> BigUint {
        assert!(self >= rhs, "BigUint subtraction underflow");
        let (lhs, rhs) = (self.limbs(), rhs.limbs());
        let mut out = Vec::with_capacity(lhs.len());
        let mut borrow = 0i64;
        for (i, &l) in lhs.iter().enumerate() {
            let d = i64::from(l) - i64::from(rhs.get(i).copied().unwrap_or(0)) + borrow;
            if d < 0 {
                out.push((d + (1i64 << 32)) as u32);
                borrow = -1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Mul for &BigUint {
    type Output = BigUint;

    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let (lhs, rhs) = (self.limbs(), rhs.limbs());
        let mut out = vec![0u32; lhs.len() + rhs.len()];
        for (i, &a) in lhs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in rhs.iter().enumerate() {
                let cur = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut idx = i + rhs.len();
            while carry != 0 {
                let cur = u64::from(out[idx]) + carry;
                out[idx] = cur as u32;
                carry = cur >> 32;
                idx += 1;
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shl<u64> for &BigUint {
    type Output = BigUint;

    fn shl(self, n: u64) -> BigUint {
        self.shl_bits(n)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad("0");
        }
        // Peel 9 decimal digits at a time.
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u32(1_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (i, chunk) in chunks.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&chunk.to_string());
            } else {
                s.push_str(&format!("{chunk:09}"));
            }
        }
        f.pad(&s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl std::str::FromStr for BigUint {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut acc = BigUint::zero();
        let ten9 = BigUint::from(1_000_000_000u64);
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + 9).min(bytes.len());
            let chunk: u32 = s[i..end].parse()?;
            let width = end - i;
            let scale = if width == 9 {
                ten9.clone()
            } else {
                BigUint::from(10u64.pow(width as u32))
            };
            acc = &(&acc * &scale) + &BigUint::from(u64::from(chunk));
            i = end;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::one().to_string(), "1");
    }

    #[test]
    fn values_below_two_to_the_64_are_inline() {
        // The inline form costs no size: a Vec<u32>'s niche holds the tag.
        assert_eq!(size_of::<BigUint>(), 24);
        let inline = |v: &BigUint| matches!(v.repr, Repr::Inline(..));
        for v in [0, 1, u64::from(u32::MAX), 1 << 32, u64::MAX] {
            assert!(inline(&big(v)), "{v}");
        }
        assert!(inline(&BigUint::from_limbs(vec![1, 2, 0, 0])));
        let three = BigUint::from_limbs(vec![0, 0, 1]);
        assert!(!inline(&three));
        // Results that shrink below 2⁶⁴ come back inline.
        assert!(inline(&three.shr_bits(1)));
        assert!(inline(&(&three - &big(1))));
        let mut halved = three.clone();
        halved.shr1();
        assert_eq!(halved, big(1 << 63));
        assert!(inline(&halved));
        assert!(inline(&three.div_rem(&big(3)).0));
    }

    #[test]
    fn limbs_round_trip_through_from_limbs() {
        assert_eq!(BigUint::zero().limbs(), &[] as &[u32]);
        let v = big(0x0123_4567_89ab_cdef);
        assert_eq!(v.limbs(), &[0x89ab_cdef, 0x0123_4567]);
        assert_eq!(BigUint::from_limbs(v.limbs().to_vec()), v);
        // from_limbs normalizes, so exposed limbs never carry trailing zeros.
        let n = BigUint::from_limbs(vec![7, 0, 0]);
        assert_eq!(n.limbs(), &[7]);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = big(u64::from(u32::MAX));
        let b = big(1);
        assert_eq!((&a + &b).to_u64(), Some(1 << 32));
    }

    #[test]
    fn sub_with_borrow() {
        let a = big(1 << 32);
        let b = big(1);
        assert_eq!((&a - &b).to_u64(), Some(u64::from(u32::MAX)));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &big(1) - &big(2);
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [
            (0u64, 17u64),
            (1, 1),
            (u64::from(u32::MAX), u64::from(u32::MAX)),
            (123_456_789_012, 987_654_321_098),
        ];
        for (x, y) in cases {
            let prod = &big(x) * &big(y);
            let expect = u128::from(x) * u128::from(y);
            assert_eq!(prod.to_string(), expect.to_string());
        }
    }

    #[test]
    fn display_round_trips_via_parse() {
        let v: BigUint = "123456789012345678901234567890".parse().unwrap();
        assert_eq!(v.to_string(), "123456789012345678901234567890");
    }

    #[test]
    fn div_rem_u32_basics() {
        let (q, r) = big(1000).div_rem_u32(7);
        assert_eq!(q.to_u64(), Some(142));
        assert_eq!(r, 6);
    }

    #[test]
    fn rem_and_mul_add_by_u64_match_u128() {
        let v: BigUint = "123456789012345678901234567890".parse().unwrap();
        let wide = 123_456_789_012_345_678_901_234_567_890u128;
        for m in [1u64, 7, u64::from(u32::MAX), (1 << 62) - 57, u64::MAX] {
            assert_eq!(u128::from(v.rem_u64(m)), wide % u128::from(m), "mod {m}");
        }
        assert_eq!(BigUint::zero().rem_u64(5), 0);
        let x = big(u64::MAX);
        assert_eq!(
            x.mul_add_u64(u64::MAX, u64::MAX).to_string(),
            (u128::from(u64::MAX) * u128::from(u64::MAX) + u128::from(u64::MAX)).to_string()
        );
        assert_eq!(BigUint::zero().mul_add_u64(9, 4).to_u64(), Some(4));
        assert!(x.mul_add_u64(0, 0).is_zero());
        assert_eq!(v.mul_add_u64(1, 0), v);
    }

    #[test]
    fn div_rem_general() {
        let a: BigUint = "123456789012345678901234567890".parse().unwrap();
        let b: BigUint = "98765432109876543210".parse().unwrap();
        let (q, r) = a.div_rem(&b);
        let back = &(&q * &b) + &r;
        assert_eq!(back, a);
        assert!(r < b);
        assert_eq!(q.to_string(), "1249999988");
    }

    #[test]
    fn div_rem_smaller_dividend() {
        let (q, r) = big(5).div_rem(&big(100));
        assert!(q.is_zero());
        assert_eq!(r.to_u64(), Some(5));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn gcd_matches_euclid() {
        fn euclid(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        let cases = [(0, 0), (0, 9), (12, 18), (35, 49), (1 << 40, 3 << 20)];
        for (x, y) in cases {
            assert_eq!(
                big(x).gcd(&big(y)).to_u64(),
                Some(euclid(x, y)),
                "gcd({x},{y})"
            );
        }
    }

    #[test]
    fn bits_and_bit_access() {
        let v = big(0b1011);
        assert_eq!(v.bits(), 4);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3) && !v.bit(63));
        assert_eq!(BigUint::zero().bits(), 0);
    }

    #[test]
    fn shl_bits_matches_u128() {
        let v = big(0xdead_beef);
        for shift in [0u64, 1, 31, 32, 33, 64, 65] {
            let got = v.shl_bits(shift);
            let expect = u128::from(0xdead_beefu64) << shift;
            assert_eq!(got.to_string(), expect.to_string(), "shift {shift}");
        }
    }

    #[test]
    fn shr_bits_matches_u128_and_inverts_shl() {
        let v = big(0xdead_beef_cafe_f00d);
        for shift in [0u64, 1, 31, 32, 33, 63, 64, 65] {
            let got = v.shr_bits(shift);
            let expect = u128::from(0xdead_beef_cafe_f00du64) >> shift.min(127);
            assert_eq!(got.to_string(), expect.to_string(), "shift {shift}");
        }
        // Shifting a value left then right by the same amount is lossless.
        for shift in [0u64, 7, 32, 100] {
            assert_eq!(v.shl_bits(shift).shr_bits(shift), v, "shift {shift}");
        }
        // Over-shifting empties the value.
        assert!(v.shr_bits(64).is_zero());
        assert!(BigUint::zero().shr_bits(3).is_zero());
    }

    #[test]
    fn pow_repeated_squaring() {
        assert_eq!(big(2).pow(10).to_u64(), Some(1024));
        assert_eq!(big(3).pow(0).to_u64(), Some(1));
        assert_eq!(big(10).pow(20).to_string(), "100000000000000000000");
    }

    #[test]
    fn to_f64_large() {
        let v = big(10).pow(40);
        let f = v.to_f64();
        assert!((f / 1e40 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_by_length_then_lex() {
        assert!(big(1 << 40) > big(u64::from(u32::MAX)));
        assert!(big(5) < big(6));
        assert_eq!(big(7).cmp(&big(7)), Ordering::Equal);
    }
}
