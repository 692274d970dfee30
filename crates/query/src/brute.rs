//! Brute-force probabilistic query evaluation: the exact, exponential
//! ground truth (`Pr(Q, (D,π)) = Σ_{D' |= Q} Pr(D')`, Section 2).
//!
//! This is also the honest baseline for *unsafe* queries: when
//! `PQE(Q_φ)` is `#P`-hard no polynomial algorithm is expected to exist,
//! and the scaling experiment (EXPERIMENTS.md, E15) contrasts this
//! evaluator's exponential growth with the paper's polynomial d-D
//! pipeline on safe queries.

use std::fmt;

use intext_boolfn::BoolFn;
use intext_numeric::ProbNum;
use intext_tid::{Tid, TupleId};

use crate::{h_witnesses, HQuery};

/// Errors from the brute-force evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BruteForceError {
    /// More tuples than the world bitmask supports.
    TooManyTuples(usize),
}

impl fmt::Display for BruteForceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BruteForceError::TooManyTuples(n) => {
                write!(f, "brute force supports < 64 tuples, got {n}")
            }
        }
    }
}

impl std::error::Error for BruteForceError {}

/// Precomputed per-`h` witness masks for fast world evaluation.
fn witness_masks(q: &HQuery, tid: &Tid) -> Vec<Vec<u64>> {
    (0..=q.k())
        .map(|i| {
            h_witnesses(tid.database(), i)
                .into_iter()
                .map(|(t1, t2)| (1u64 << t1.0) | (1u64 << t2.0))
                .collect()
        })
        .collect()
}

fn world_truth(phi: &BoolFn, masks: &[Vec<u64>], world: u64) -> bool {
    let mut truth = 0u32;
    for (i, ms) in masks.iter().enumerate() {
        // False positive of clippy::manual_contains: `m` is bound on both
        // sides (witness-mask inclusion, not membership).
        #[allow(clippy::manual_contains)]
        if ms.iter().any(|&m| world & m == m) {
            truth |= 1 << i;
        }
    }
    phi.eval(truth)
}

/// Each tuple's weight in a world where it is present and where it is
/// absent — `p` and `1 − p` — in tuple id order.
pub(crate) fn tuple_weights<N: ProbNum>(tid: &Tid) -> Vec<(N, N)> {
    (0..tid.len())
        .map(|i| {
            let p = N::from_rational(tid.prob(TupleId(i as u32)));
            let absent = p.complement();
            (p, absent)
        })
        .collect()
}

/// Brute-force `PQE(Q_φ)` by summing over all `2^|D|` worlds, in any
/// [`ProbNum`] type (exact rationals are the ground truth every other
/// evaluator is checked against).
///
/// The recursion decides one tuple per level, present (`× p`) first,
/// then absent (`× (1 − p)`, each complement computed once), and adds
/// the two subtrees' sums; it shares partial products along world
/// prefixes, so the total cost is `O(2^|D|)` multiplications plus a
/// witness scan per world. An exact zero prefix prunes its subtree.
pub fn pqe_brute_force<N: ProbNum>(q: &HQuery, tid: &Tid) -> Result<N, BruteForceError> {
    let m = tid.len();
    if m >= 64 {
        return Err(BruteForceError::TooManyTuples(m));
    }
    let masks = witness_masks(q, tid);
    let weights = tuple_weights(tid);
    fn rec<N: ProbNum>(
        phi: &BoolFn,
        masks: &[Vec<u64>],
        weights: &[(N, N)],
        depth: usize,
        world: u64,
        weight: N,
    ) -> N {
        if weight.is_skippable_zero() {
            return N::zero();
        }
        let Some((p, absent)) = weights.get(depth) else {
            return if world_truth(phi, masks, world) {
                weight
            } else {
                N::zero()
            };
        };
        let with = rec(
            phi,
            masks,
            weights,
            depth + 1,
            world | (1 << depth),
            weight.mul(p),
        );
        let without = rec(phi, masks, weights, depth + 1, world, weight.mul(absent));
        with.add(&without)
    }
    Ok(rec(q.phi(), &masks, &weights, 0, 0, N::one()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::phi9;
    use intext_numeric::BigRational;
    use intext_tid::{random_tid, uniform_tid, Database, DbGenConfig, TupleDesc};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn single_h_query_probability_by_hand() {
        // Q = h_{1,0} = ∃x∃y R(x)∧S1(x,y); D = {R(0), S1(0,0)} with
        // probabilities 1/2 and 1/3: Pr = 1/6.
        let mut db = Database::new(1, 1);
        db.insert(TupleDesc::R(0)).unwrap();
        db.insert(TupleDesc::S(1, 0, 0)).unwrap();
        let tid = intext_tid::Tid::new(db, vec![r(1, 2), r(1, 3)]).unwrap();
        let q = HQuery::new(BoolFn::var(2, 0));
        assert_eq!(pqe_brute_force::<BigRational>(&q, &tid).unwrap(), r(1, 6));
    }

    #[test]
    fn negated_query_complements() {
        let mut db = Database::new(1, 1);
        db.insert(TupleDesc::R(0)).unwrap();
        db.insert(TupleDesc::S(1, 0, 0)).unwrap();
        let tid = intext_tid::Tid::new(db, vec![r(1, 2), r(1, 3)]).unwrap();
        let q = HQuery::new(BoolFn::var(2, 0));
        let nq = HQuery::new(!&BoolFn::var(2, 0));
        let p = pqe_brute_force::<BigRational>(&q, &tid).unwrap();
        let np = pqe_brute_force::<BigRational>(&nq, &tid).unwrap();
        assert!((&p + &np).is_one());
    }

    #[test]
    fn tautology_and_contradiction() {
        let tid = uniform_tid(intext_tid::complete_database(2, 2), r(1, 2));
        let top = HQuery::new(BoolFn::top(3));
        let bot = HQuery::new(BoolFn::bottom(3));
        assert!(pqe_brute_force::<BigRational>(&top, &tid).unwrap().is_one());
        assert!(pqe_brute_force::<BigRational>(&bot, &tid)
            .unwrap()
            .is_zero());
    }

    #[test]
    fn f64_matches_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let db = intext_tid::random_database(
            &DbGenConfig {
                k: 3,
                domain_size: 2,
                density: 0.8,
                prob_denominator: 10,
            },
            &mut rng,
        );
        let tid = random_tid(db, 10, &mut rng);
        let q = HQuery::new(phi9());
        let exact = pqe_brute_force::<BigRational>(&q, &tid).unwrap().to_f64();
        let fast = pqe_brute_force::<f64>(&q, &tid).unwrap();
        assert!((exact - fast).abs() < 1e-12, "{exact} vs {fast}");
    }

    #[test]
    fn deterministic_worlds_reduce_to_model_checking() {
        // All probabilities 1: Pr(Q) = [D |= Q].
        let mut db = Database::new(3, 2);
        db.insert(TupleDesc::R(0)).unwrap();
        db.insert(TupleDesc::S(1, 0, 1)).unwrap();
        let tid = uniform_tid(db, BigRational::one());
        let q = HQuery::new(BoolFn::var(4, 0)); // h_{3,0}
        assert!(pqe_brute_force::<BigRational>(&q, &tid).unwrap().is_one());
        let q1 = HQuery::new(BoolFn::var(4, 1)); // h_{3,1}: no S2 tuples
        assert!(pqe_brute_force::<BigRational>(&q1, &tid).unwrap().is_zero());
    }

    #[test]
    fn too_many_tuples_is_reported() {
        let tid = uniform_tid(intext_tid::complete_database(3, 5), r(1, 2));
        let q = HQuery::new(phi9());
        assert!(matches!(
            pqe_brute_force::<BigRational>(&q, &tid),
            Err(BruteForceError::TooManyTuples(_))
        ));
    }
}
