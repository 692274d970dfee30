//! The benchmark's only source of randomness: SplitMix64, seeded from
//! `--seed`, so one seed always yields one op sequence.

use intext_numeric::BigRational;

/// Largest probability denominator drawn. Exact-walk cost grows with the
/// denominators, so their distribution is fixed for every seed.
const DEN_MAX: u64 = 9;

/// SplitMix64 (as in the repository's differential test harnesses).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named sub-stream of a run seed: streams with
    /// different `salt`s are independent, so drawing more from one never
    /// shifts another.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform index into a non-empty slice.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// A tuple probability `num/den` with `2 <= den <= DEN_MAX` and
    /// `0 < num < den`, so every world stays possible.
    pub fn probability(&mut self) -> BigRational {
        let den = 2 + self.below(DEN_MAX - 1);
        let num = 1 + self.below(den - 1);
        BigRational::from_ratio(num as i64, den)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}
