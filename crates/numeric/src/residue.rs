//! Exact answers by residue arithmetic: a probability pass run modulo
//! word-size primes, rebuilt into one exact rational.
//!
//! A probability pass (Section 2 of the paper) computes a multilinear
//! polynomial `P` with integer coefficients in the tuple probabilities
//! `p_v = a_v / b_v`. With `D = ∏ b_v` over the variables the pass reads,
//! `N = P · D` is an integer with `0 ≤ N ≤ D`, and `D` is known before
//! the pass. The pass uses only `+`, `−`, `×` and `1 − x`, which commute
//! with reduction modulo a prime `p` that divides no `b_v` (there
//! `a_v / b_v` is `a_v · b_v⁻¹ mod p`). So one pass over [`Residues`]
//! computes `P mod p` for a whole block of primes, and [`ResidueCrt`]
//! multiplies by `D`, combines the residues of `N` by the Chinese
//! remainder theorem over primes whose product exceeds `D`, and reduces
//! `N / D` once. No fraction is normalized per node and no rational
//! reconstruction is needed.
//!
//! The primes are the [`RESIDUE_BLOCKS`] · [`RESIDUE_LANES`] largest
//! below `2⁶²`, so every prime carries 61 bits of `N`. A block's primes
//! are compile-time constants (the block index is the const parameter
//! of [`Residues`]), which keeps [`ProbNum`]'s methods free of a modulus
//! argument; products use Montgomery multiplication with `R = 2⁶⁴`.

use crate::{BigInt, BigRational, BigUint, ProbNum};

/// Primes per residue block: the width of one [`Residues`] value, and
/// how many residues one pass computes.
pub const RESIDUE_LANES: usize = 4;

/// Blocks in the prime table. A denominator product `D` of more than
/// `61 · RESIDUE_BLOCKS · RESIDUE_LANES` bits (3,904) has no plan
/// ([`ResidueCrt::new`] returns `None`), and its pass runs in
/// [`BigRational`].
pub const RESIDUE_BLOCKS: usize = 16;

/// The 64 largest primes below `2⁶²`, descending; block `b` holds
/// `PRIMES[b · RESIDUE_LANES..][..RESIDUE_LANES]`.
const PRIMES: [u64; RESIDUE_BLOCKS * RESIDUE_LANES] = [
    0x3fffffffffffffc7,
    0x3fffffffffffffa9,
    0x3fffffffffffff8b,
    0x3fffffffffffff71,
    0x3fffffffffffff67,
    0x3fffffffffffff59,
    0x3fffffffffffff55,
    0x3fffffffffffff3d,
    0x3fffffffffffff35,
    0x3ffffffffffffeef,
    0x3ffffffffffffee1,
    0x3ffffffffffffec3,
    0x3ffffffffffffe45,
    0x3ffffffffffffe1d,
    0x3ffffffffffffe11,
    0x3ffffffffffffdc1,
    0x3ffffffffffffdbb,
    0x3ffffffffffffda5,
    0x3ffffffffffffd87,
    0x3ffffffffffffd69,
    0x3ffffffffffffd03,
    0x3ffffffffffffcfb,
    0x3ffffffffffffcf7,
    0x3ffffffffffffce9,
    0x3ffffffffffffcd3,
    0x3ffffffffffffcc1,
    0x3ffffffffffffc65,
    0x3ffffffffffffc2b,
    0x3ffffffffffffc1f,
    0x3ffffffffffffc17,
    0x3ffffffffffffc11,
    0x3ffffffffffffc07,
    0x3ffffffffffffb53,
    0x3ffffffffffffb27,
    0x3ffffffffffffaf3,
    0x3ffffffffffffab7,
    0x3ffffffffffffa67,
    0x3ffffffffffffa15,
    0x3ffffffffffff9ef,
    0x3ffffffffffff9d9,
    0x3ffffffffffff9d3,
    0x3ffffffffffff9c5,
    0x3ffffffffffff9af,
    0x3ffffffffffff977,
    0x3ffffffffffff95f,
    0x3ffffffffffff95b,
    0x3ffffffffffff959,
    0x3ffffffffffff8e1,
    0x3ffffffffffff8a7,
    0x3ffffffffffff889,
    0x3ffffffffffff87d,
    0x3ffffffffffff805,
    0x3ffffffffffff7e7,
    0x3ffffffffffff7c9,
    0x3ffffffffffff7a3,
    0x3ffffffffffff775,
    0x3ffffffffffff757,
    0x3ffffffffffff739,
    0x3ffffffffffff713,
    0x3ffffffffffff6d1,
    0x3ffffffffffff6c1,
    0x3ffffffffffff6b9,
    0x3ffffffffffff6a3,
    0x3ffffffffffff68b,
];

/// One table prime with its Montgomery constants (`R = 2⁶⁴`). Every
/// residue below is in Montgomery form `x · R mod p` unless it says
/// otherwise.
#[derive(Clone, Copy)]
struct Modulus {
    p: u64,
    /// `−p⁻¹ mod 2⁶⁴`.
    neg_inv: u64,
    /// `R mod p`: the Montgomery form of 1.
    one: u64,
    /// `R² mod p`: multiplying by it converts into Montgomery form.
    r2: u64,
}

impl Modulus {
    const fn new(p: u64) -> Modulus {
        // Newton's step doubles the correct low bits of p⁻¹ mod 2⁶⁴, and
        // an odd p is its own inverse mod 8: 3 → 6 → … → 96 bits.
        let mut inv = p;
        let mut i = 0;
        while i < 5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
            i += 1;
        }
        let one = ((1u128 << 64) % p as u128) as u64;
        let r2 = ((one as u128 * one as u128) % p as u128) as u64;
        Modulus {
            p,
            neg_inv: inv.wrapping_neg(),
            one,
            r2,
        }
    }

    /// Montgomery reduction: `t · R⁻¹ mod p`, for `t < p · R`.
    #[inline(always)]
    fn redc(self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.neg_inv);
        // t + m·p < p·R + R·p < 2¹²⁷ for p < 2⁶², and R divides it.
        let u = ((t + u128::from(m) * u128::from(self.p)) >> 64) as u64;
        if u >= self.p {
            u - self.p
        } else {
            u
        }
    }

    #[inline(always)]
    fn mul(self, a: u64, b: u64) -> u64 {
        self.redc(u128::from(a) * u128::from(b))
    }

    #[inline(always)]
    fn add(self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    #[inline(always)]
    fn sub(self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// `v mod p`, in Montgomery form.
    fn reduce(self, v: &BigUint) -> u64 {
        let plain = v.to_u64().map_or_else(|| v.rem_u64(self.p), |x| x % self.p);
        self.mul(plain, self.r2)
    }

    /// A signed integer mod `p`, in Montgomery form.
    fn reduce_signed(self, v: &BigInt) -> u64 {
        let x = self.reduce(v.magnitude());
        if v.is_negative() {
            self.sub(0, x)
        } else {
            x
        }
    }

    /// A Montgomery residue back to its plain value in `[0, p)`.
    fn plain(self, x: u64) -> u64 {
        self.redc(u128::from(x))
    }

    /// `x⁻¹` by Fermat (`x^(p−2)`); `0` maps to `0`.
    fn inv(self, x: u64) -> u64 {
        let (mut acc, mut base, mut exp) = (self.one, x, self.p - 2);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }
}

/// Block `b` of the prime table, with its Montgomery constants.
const fn block(b: usize) -> [Modulus; RESIDUE_LANES] {
    let mut out = [Modulus::new(3); RESIDUE_LANES];
    let mut lane = 0;
    while lane < RESIDUE_LANES {
        out[lane] = Modulus::new(PRIMES[b * RESIDUE_LANES + lane]);
        lane += 1;
    }
    out
}

/// A number modulo the [`RESIDUE_LANES`] primes of block `B` of the
/// prime table, one residue per lane. Every operation is the modular
/// one, lane by lane, so a probability pass over `Residues<B>` computes
/// its exact value's residues; [`ResidueCrt`] rebuilds that value.
///
/// A residue of `0` is not a zero value, so
/// [`is_skippable_zero`](ProbNum::is_skippable_zero) is `false` and a
/// pass runs the same operations as a floating-point one. A lane whose
/// prime divides a denominator computes garbage (the inverse of `0` is
/// taken as `0`); [`ResidueCrt`] never reads such a lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Residues<const B: usize>([u64; RESIDUE_LANES]);

impl<const B: usize> Residues<B> {
    /// The block's moduli; naming a block past the table fails to
    /// compile.
    const MODULI: [Modulus; RESIDUE_LANES] = block(B);

    fn lanes(f: impl Fn(Modulus, usize) -> u64) -> Self {
        Residues(std::array::from_fn(|lane| f(Self::MODULI[lane], lane)))
    }

    /// The residues of `ps` (probabilities, or any rationals) in one
    /// batch: Montgomery's trick turns the `ps.len()` inverses of the
    /// denominators into one inverse per lane and three products per
    /// value. Equal to mapping [`ProbNum::from_rational`] over `ps`.
    pub fn from_rationals(ps: &[&BigRational]) -> Vec<Self> {
        let dens: Vec<Self> = ps
            .iter()
            .map(|p| Self::lanes(|m, _| m.reduce(p.denom())))
            .collect();
        // prefix[i] = dens[0] · … · dens[i − 1].
        let mut prefix = Vec::with_capacity(dens.len());
        let mut product = <Self as ProbNum>::one();
        for d in &dens {
            prefix.push(product);
            product = product.mul(d);
        }
        let mut inv = Self::lanes(|m, lane| m.inv(product.0[lane]));
        let mut out = vec![<Self as ProbNum>::zero(); ps.len()];
        for i in (0..ps.len()).rev() {
            // Here inv = (dens[0] · … · dens[i])⁻¹.
            let num = Self::lanes(|m, _| m.reduce_signed(ps[i].numer()));
            out[i] = num.mul(&inv.mul(&prefix[i]));
            inv = inv.mul(&dens[i]);
        }
        out
    }
}

impl<const B: usize> ProbNum for Residues<B> {
    fn zero() -> Self {
        Residues([0; RESIDUE_LANES])
    }
    fn one() -> Self {
        Self::lanes(|m, _| m.one)
    }
    /// `a · b⁻¹` for `p = a / b`, per lane.
    fn from_rational(p: &BigRational) -> Self {
        Self::lanes(|m, _| m.mul(m.reduce_signed(p.numer()), m.inv(m.reduce(p.denom()))))
    }
    fn add(&self, rhs: &Self) -> Self {
        Self::lanes(|m, lane| m.add(self.0[lane], rhs.0[lane]))
    }
    fn sub(&self, rhs: &Self) -> Self {
        Self::lanes(|m, lane| m.sub(self.0[lane], rhs.0[lane]))
    }
    fn mul(&self, rhs: &Self) -> Self {
        Self::lanes(|m, lane| m.mul(self.0[lane], rhs.0[lane]))
    }
    fn complement(&self) -> Self {
        Self::lanes(|m, lane| m.sub(m.one, self.0[lane]))
    }
    fn is_skippable_zero(&self) -> bool {
        false
    }
}

/// A probability pass run on one residue block: [`ResidueCrt::solve`]
/// calls [`walk`](Self::walk) once for each block it needs.
pub trait BlockWalk {
    /// The pass's value modulo the primes of block `B`.
    fn walk<const B: usize>(&mut self) -> Residues<B>;
}

/// How one exact pass is rebuilt from residues: `D`, the product of
/// the denominators the pass reads, and the table primes its value is
/// rebuilt from.
#[derive(Clone, Debug)]
pub struct ResidueCrt {
    /// `D = ∏ b_v`.
    den: BigUint,
    /// Table indices, ascending: the first primes that divide no
    /// denominator, just enough that their product exceeds `D`.
    primes: Vec<usize>,
}

impl ResidueCrt {
    /// The plan for a pass over probabilities with denominators `dens`:
    /// `D = ∏ dens` and the first `⌈bits(D) / 61⌉` table primes that do
    /// not divide `D` (a prime divides `D` iff it divides some
    /// denominator). `None` when the table runs out first; that pass
    /// belongs in [`BigRational`].
    pub fn new<'a>(dens: impl IntoIterator<Item = &'a BigUint>) -> Option<ResidueCrt> {
        let den = dens
            .into_iter()
            .fold(BigUint::one(), |d, b| match b.to_u64() {
                Some(b) => d.mul_add_u64(b, 0),
                None => &d * b,
            });
        // Each prime exceeds 2⁶¹, so primes worth bits(D) bits multiply
        // to at least 2^bits(D) > D.
        let (need, mut have) = (den.bits(), 0);
        let mut primes = Vec::new();
        for (i, &p) in PRIMES.iter().enumerate() {
            if have >= need {
                break;
            }
            if den.rem_u64(p) != 0 {
                primes.push(i);
                have += u64::from(p.ilog2());
            }
        }
        (have >= need).then_some(ResidueCrt { den, primes })
    }

    /// The blocks a pass walks: every block that holds a chosen prime.
    pub fn blocks(&self) -> usize {
        self.primes.last().map_or(0, |&i| i / RESIDUE_LANES + 1)
    }

    /// The number of primes the value is rebuilt from.
    pub fn primes(&self) -> usize {
        self.primes.len()
    }

    /// The exact value: walks blocks `0..blocks()` once each, multiplies
    /// every chosen residue by `D`, combines the residues of `N` by CRT,
    /// and reduces `N / D` once.
    pub fn solve(&self, walk: &mut impl BlockWalk) -> BigRational {
        let mut residues = Vec::with_capacity(self.blocks() * RESIDUE_LANES);
        for b in 0..self.blocks() {
            residues.extend(walk_block(b, walk));
        }
        let (mut n, mut modulus) = (BigUint::zero(), BigUint::one());
        for &i in &self.primes {
            let m = MODULI[i];
            // N mod p, then the digit t with N ≡ n + modulus · t (mod p).
            let r = m.mul(residues[i], m.reduce(&self.den));
            let step = m.sub(r, m.reduce(&n));
            let t = m.plain(m.mul(step, m.inv(m.reduce(&modulus))));
            n = &n + &modulus.mul_add_u64(t, 0);
            modulus = modulus.mul_add_u64(m.p, 0);
        }
        BigRational::new(BigInt::from(n), self.den.clone())
    }
}

/// Every table prime with its Montgomery constants.
const MODULI: [Modulus; RESIDUE_BLOCKS * RESIDUE_LANES] = {
    let mut out = [Modulus::new(3); RESIDUE_BLOCKS * RESIDUE_LANES];
    let mut i = 0;
    while i < out.len() {
        out[i] = Modulus::new(PRIMES[i]);
        i += 1;
    }
    out
};

/// Block `b`'s pass, in Montgomery form: the one place a runtime block
/// index meets the const parameter.
fn walk_block(b: usize, walk: &mut impl BlockWalk) -> [u64; RESIDUE_LANES] {
    macro_rules! dispatch {
        ($($block:literal)*) => {
            match b {
                $($block => walk.walk::<$block>().0,)*
                _ => unreachable!("block {b} is past the prime table"),
            }
        };
    }
    dispatch!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    /// Deterministic Miller–Rabin: these twelve bases decide every
    /// `u64`.
    fn is_prime(n: u64) -> bool {
        let mulmod = |a: u64, b: u64| (u128::from(a) * u128::from(b) % u128::from(n)) as u64;
        let powmod = |mut b: u64, mut e: u64| {
            let mut acc = 1;
            while e > 0 {
                if e & 1 == 1 {
                    acc = mulmod(acc, b);
                }
                b = mulmod(b, b);
                e >>= 1;
            }
            acc
        };
        let bases = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        if bases.contains(&n) {
            return true;
        }
        if n < 2 || bases.iter().any(|&b| n.is_multiple_of(b)) {
            return false;
        }
        let s = (n - 1).trailing_zeros();
        let d = (n - 1) >> s;
        bases.iter().all(|&a| {
            let mut x = powmod(a, d);
            if x == 1 || x == n - 1 {
                return true;
            }
            (1..s).any(|_| {
                x = mulmod(x, x);
                x == n - 1
            })
        })
    }

    #[test]
    fn the_table_is_the_largest_primes_below_2_62() {
        assert!(PRIMES.iter().all(|&p| is_prime(p) && p.ilog2() == 61));
        assert!(PRIMES.windows(2).all(|w| w[0] > w[1]), "descending");
        let mut p = (1u64 << 62) - 1;
        for &q in &PRIMES {
            while p > q {
                assert!(!is_prime(p), "{p} is prime but missing");
                p -= 2;
            }
            p -= 2;
        }
    }

    #[test]
    fn montgomery_arithmetic_matches_u128() {
        let m = MODULI[5];
        let (a, b) = (0x1234_5678_9abc_def0 % m.p, m.p - 3);
        let mont = |x: u64| m.mul(x, m.r2);
        let wide = |x: u128| (x % u128::from(m.p)) as u64;
        assert_eq!(
            m.plain(m.mul(mont(a), mont(b))),
            wide(u128::from(a) * u128::from(b))
        );
        assert_eq!(
            m.plain(m.add(mont(a), mont(b))),
            wide(u128::from(a) + u128::from(b))
        );
        assert_eq!(m.plain(m.sub(mont(b), mont(a))), b - a);
        assert_eq!(m.plain(m.sub(mont(a), mont(b))), a + m.p - b);
        assert_eq!(m.plain(m.mul(mont(a), m.inv(mont(a)))), 1);
        assert_eq!(m.inv(0), 0);
        assert_eq!(m.plain(m.one), 1);
    }

    /// The same expression, written once, evaluated per block.
    fn node<N: ProbNum>(p: &N, lo: &N, hi: &N) -> N {
        p.mul(hi).add(&p.complement().mul(lo))
    }

    #[test]
    fn a_pass_computes_the_residues_of_the_exact_value() {
        let (p, lo, hi) = (r(1, 3), r(2, 7), r(5, 11));
        let exact = node(&p, &lo, &hi); // 79/231
        let residues = node::<Residues<3>>(
            &ProbNum::from_rational(&p),
            &ProbNum::from_rational(&lo),
            &ProbNum::from_rational(&hi),
        );
        assert_eq!(residues, Residues::from_rational(&exact));
        let batch = Residues::<3>::from_rationals(&[&p, &lo, &hi, &r(-4, 9), &r(0, 1)]);
        assert_eq!(batch[0], Residues::from_rational(&p));
        assert_eq!(batch[3], Residues::from_rational(&r(-4, 9)));
        assert_eq!(batch[4], Residues::zero());
        assert!(!Residues::<0>::zero().is_skippable_zero());
        assert_eq!(Residues::<0>::one().complement(), Residues::zero());
        assert_eq!(Residues::<0>::one().sub(&Residues::one()), Residues::zero());
    }

    /// A walk that evaluates [`node`] in every block it is asked for.
    struct Node<'a>(&'a [&'a BigRational; 3], Vec<usize>);

    impl BlockWalk for Node<'_> {
        fn walk<const B: usize>(&mut self) -> Residues<B> {
            self.1.push(B);
            let v = Residues::<B>::from_rationals(self.0);
            node(&v[0], &v[1], &v[2])
        }
    }

    #[test]
    fn crt_rebuilds_the_exact_value() {
        let (p, lo, hi) = (r(1, 3), r(2, 7), r(5, 11));
        let crt = ResidueCrt::new([p.denom(), lo.denom(), hi.denom()]).unwrap();
        assert_eq!((crt.primes(), crt.blocks()), (1, 1));
        let mut walk = Node(&[&p, &lo, &hi], Vec::new());
        assert_eq!(crt.solve(&mut walk), node(&p, &lo, &hi));
        assert_eq!(walk.1, [0]);
    }

    #[test]
    fn wide_denominators_walk_several_blocks_and_skip_dividing_primes() {
        // D = 3⁸⁰ · PRIMES[1] · (2⁶⁰ − 3) has 249 bits: five primes, in
        // two blocks, and table prime 1 divides D, so it is skipped.
        let (p, lo, hi) = (
            BigRational::new(BigInt::one(), BigUint::from(3u64).pow(80)),
            BigRational::new(BigInt::from(12345i64), BigUint::from(PRIMES[1])),
            BigRational::new(
                BigInt::from(BigUint::from((1u64 << 60) - 7)),
                BigUint::from((1u64 << 60) - 3),
            ),
        );
        let crt = ResidueCrt::new([p.denom(), lo.denom(), hi.denom()]).unwrap();
        assert_eq!(crt.den.bits(), 249);
        assert_eq!(crt.primes, [0, 2, 3, 4, 5]);
        assert_eq!(crt.blocks(), 2);
        let mut walk = Node(&[&p, &lo, &hi], Vec::new());
        assert_eq!(crt.solve(&mut walk), node(&p, &lo, &hi));
        assert_eq!(walk.1, [0, 1]);
    }

    #[test]
    fn every_block_dispatches_and_the_table_bounds_the_plan() {
        let third = r(1, 3);
        for b in 0..RESIDUE_BLOCKS {
            let mut walk = Node(&[&third, &third, &third], Vec::new());
            let residues = walk_block(b, &mut walk);
            assert_eq!(walk.1, [b]);
            let m = MODULI[b * RESIDUE_LANES];
            // node(1/3, 1/3, 1/3) = 1/3.
            assert_eq!(
                m.plain(m.mul(residues[0], m.reduce(&BigUint::from(3u64)))),
                1
            );
        }
        // 3,904 bits fit the table; one more does not.
        let fits = BigUint::one().shl_bits(61 * 64 - 1);
        assert_eq!(ResidueCrt::new([&fits]).unwrap().blocks(), RESIDUE_BLOCKS);
        assert!(ResidueCrt::new([&fits.shl_bits(1)]).is_none());
        // D = 1: the 0/1 probabilities need one prime.
        assert_eq!(ResidueCrt::new([]).unwrap().primes(), 1);
    }
}
