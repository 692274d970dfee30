//! The numbers a probability pass runs on.
//!
//! On a d-D or an OBDD the probability is one bottom-up pass of `×`,
//! `+` and `1 − x` (Section 2 of the paper), and that pass is the same
//! whatever numbers it runs on. Every probability computation of the
//! workspace — circuit, OBDD and artifact walks, lifted inference,
//! brute force, grounded weighted model counting — is therefore written
//! once, generic over [`ProbNum`], and instantiated for exact answers
//! ([`BigRational`], and [`Residues`](crate::Residues) blocks rebuilt by
//! [`ResidueCrt`](crate::ResidueCrt)), served answers (`f64`) and the
//! lane kernel's blocks of scenarios (`[f64; N]`).

use crate::BigRational;

/// A number type a probability pass computes in.
///
/// **Operation order is the contract.** Every method performs exactly
/// the one operation it names — no fused multiply-add, no reassociation
/// — so a pass fixes the bits of its floating-point answers by the
/// order of its operations alone. Two passes that perform the same
/// operations in the same order give the same `f64` bits, and lane `l`
/// of a `[f64; N]` pass gives the bits of the `f64` pass under lane
/// `l`'s probabilities.
pub trait ProbNum: Clone {
    /// `0`.
    fn zero() -> Self;
    /// `1`.
    fn one() -> Self;
    /// An exact probability in this type: the value itself for
    /// [`BigRational`], `a · b⁻¹` modulo each prime for residue blocks,
    /// its nearest `f64` ([`BigRational::to_f64`]) for floats, and that
    /// `f64` in every lane for lane blocks.
    fn from_rational(p: &BigRational) -> Self;
    /// `self + rhs`.
    fn add(&self, rhs: &Self) -> Self;
    /// `self − rhs`.
    fn sub(&self, rhs: &Self) -> Self;
    /// `self × rhs`.
    fn mul(&self, rhs: &Self) -> Self;
    /// `1 − self`: the complement probability.
    fn complement(&self) -> Self;
    /// Whether a pass should skip a product that has `self` as a
    /// factor: `true` only for an exact zero. Every exact operation
    /// normalizes its result, so skipping a known-zero term saves real
    /// work. Floating types answer `false`, so their passes never
    /// branch on a value; their zero terms add `+0.0`, which leaves the
    /// non-negative sums a probability pass forms unchanged. Residue
    /// blocks answer `false` too: a residue of 0 is not a zero value.
    fn is_skippable_zero(&self) -> bool;
}

impl ProbNum for BigRational {
    fn zero() -> Self {
        BigRational::zero()
    }
    fn one() -> Self {
        BigRational::one()
    }
    fn from_rational(p: &BigRational) -> Self {
        p.clone()
    }
    fn add(&self, rhs: &Self) -> Self {
        self + rhs
    }
    fn sub(&self, rhs: &Self) -> Self {
        self - rhs
    }
    fn mul(&self, rhs: &Self) -> Self {
        self * rhs
    }
    fn complement(&self) -> Self {
        BigRational::complement(self)
    }
    fn is_skippable_zero(&self) -> bool {
        self.is_zero()
    }
}

impl ProbNum for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_rational(p: &BigRational) -> Self {
        p.to_f64()
    }
    fn add(&self, rhs: &Self) -> Self {
        self + rhs
    }
    fn sub(&self, rhs: &Self) -> Self {
        self - rhs
    }
    fn mul(&self, rhs: &Self) -> Self {
        self * rhs
    }
    fn complement(&self) -> Self {
        1.0 - self
    }
    fn is_skippable_zero(&self) -> bool {
        false
    }
}

/// `N` independent `f64` scenarios, one per lane: every operation is
/// the `f64` operation applied lane by lane. The fixed-width loops are
/// what lets the compiler vectorize a lane pass without changing any
/// lane's order of operations.
impl<const N: usize> ProbNum for [f64; N] {
    fn zero() -> Self {
        [0.0; N]
    }
    fn one() -> Self {
        [1.0; N]
    }
    fn from_rational(p: &BigRational) -> Self {
        [p.to_f64(); N]
    }
    fn add(&self, rhs: &Self) -> Self {
        std::array::from_fn(|l| self[l] + rhs[l])
    }
    fn sub(&self, rhs: &Self) -> Self {
        std::array::from_fn(|l| self[l] - rhs[l])
    }
    fn mul(&self, rhs: &Self) -> Self {
        std::array::from_fn(|l| self[l] * rhs[l])
    }
    fn complement(&self) -> Self {
        self.map(|x| 1.0 - x)
    }
    fn is_skippable_zero(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same expression, written once, evaluated in every type.
    fn node<N: ProbNum>(p: &N, lo: &N, hi: &N) -> N {
        p.mul(hi).add(&p.complement().mul(lo))
    }

    #[test]
    fn every_type_computes_the_same_expression() {
        let (p, lo, hi) = (
            BigRational::from_ratio(1, 3),
            BigRational::from_ratio(2, 7),
            BigRational::from_ratio(5, 11),
        );
        let exact = node(&p, &lo, &hi);
        // 1/3 · 5/11 + 2/3 · 2/7 = 79/231.
        assert_eq!(exact, BigRational::from_ratio(79, 231));
        let (pf, lof, hif) = (p.to_f64(), lo.to_f64(), hi.to_f64());
        let float = node(&pf, &lof, &hif);
        assert_eq!(float.to_bits(), (pf * hif + (1.0 - pf) * lof).to_bits());
        let lanes = node::<[f64; 4]>(
            &[pf, 0.5, 1.0, 0.0],
            &[lof; 4],
            &ProbNum::from_rational(&hi),
        );
        assert_eq!(
            lanes[0].to_bits(),
            float.to_bits(),
            "lane 0 is the f64 pass"
        );
        assert_eq!(lanes[2], hif);
        assert_eq!(lanes[3], lof);
    }

    #[test]
    fn constants_conversion_and_subtraction() {
        let third = BigRational::from_ratio(1, 3);
        assert!(<BigRational as ProbNum>::zero().is_zero());
        assert!(<BigRational as ProbNum>::one().is_one());
        assert_eq!(ProbNum::sub(&third, &third), BigRational::zero());
        assert_eq!(<f64 as ProbNum>::from_rational(&third), third.to_f64());
        assert_eq!(<[f64; 2] as ProbNum>::one().sub(&[0.25, 0.5]), [0.75, 0.5]);
        assert_eq!(<[f64; 2] as ProbNum>::zero(), [0.0; 2]);
    }

    #[test]
    fn only_exact_zeros_are_skipped() {
        assert!(BigRational::zero().is_skippable_zero());
        assert!(!BigRational::from_ratio(1, 2).is_skippable_zero());
        assert!(!0.0f64.is_skippable_zero());
        assert!(![0.0f64; 8].is_skippable_zero());
    }
}
