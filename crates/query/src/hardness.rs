//! The executable core of the `#P`-hardness side of the dichotomy.
//!
//! Every hardness result the paper builds on (Proposition 3.5's hard
//! branch, hence Corollary 3.9 and Proposition 6.4) descends from Dalvi
//! and Suciu's reduction of **#PP2CNF** — counting the models of a
//! *positive partitioned 2-CNF* `Φ = ⋀_{(i,j)∈E} (x_i ∨ y_j)` — to
//! probabilistic evaluation of the "triangle" query
//! `q = ∃x∃y R(x) ∧ S_1(x,y) ∧ T(y)`.
//!
//! The reduction: put `R(i)` and `T(j)` in the database with probability
//! `1/2` each and `S_1(i,j)` with probability `1` for every clause
//! `(i,j)`. Reading `x_i = 1` as "`R(i)` absent" and `y_j = 1` as
//! "`T(j)` absent", a clause `x_i ∨ y_j` fails exactly when the edge
//! `(i,j)` is witnessed, so `Φ` is satisfied iff `q` is *false*:
//!
//! ```text
//! #Φ = 2^(m+n) · (1 − Pr(q))
//! ```
//!
//! Hardness cannot be "run", but the reduction can: this module counts
//! PP2CNF models through a PQE oracle and checks the answer against
//! direct enumeration — making the `#P`-hardness proofs of the paper's
//! red regions concrete.

use intext_numeric::{BigRational, BigUint};
use intext_tid::{Database, Tid, TupleDesc};

use crate::{ucq_brute_force, Atom, ConjunctiveQuery, QueryExpr, Term};

/// A positive partitioned 2-CNF: clauses `(x_i ∨ y_j)` over disjoint
/// variable sets `x_0..x_{m-1}` and `y_0..y_{n-1}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pp2Cnf {
    /// Number of `x` variables.
    pub num_x: u32,
    /// Number of `y` variables.
    pub num_y: u32,
    /// Clauses as `(i, j)` index pairs.
    pub clauses: Vec<(u32, u32)>,
}

impl Pp2Cnf {
    /// Builds a formula, validating the variable indices.
    ///
    /// # Panics
    /// Panics if a clause references an out-of-range variable.
    pub fn new(num_x: u32, num_y: u32, clauses: Vec<(u32, u32)>) -> Self {
        for &(i, j) in &clauses {
            assert!(i < num_x && j < num_y, "clause ({i},{j}) out of range");
        }
        Pp2Cnf {
            num_x,
            num_y,
            clauses,
        }
    }

    /// Counts the models by direct enumeration over `2^(m+n)` assignments
    /// (the ground truth; `m + n <= 24`).
    pub fn count_models_direct(&self) -> BigUint {
        let (m, n) = (self.num_x, self.num_y);
        assert!(m + n <= 24, "direct counting supports m + n <= 24");
        let mut count = 0u64;
        for bits in 0..(1u64 << (m + n)) {
            let x = bits & ((1 << m) - 1);
            let y = bits >> m;
            let ok = self
                .clauses
                .iter()
                .all(|&(i, j)| (x >> i) & 1 == 1 || (y >> j) & 1 == 1);
            if ok {
                count += 1;
            }
        }
        BigUint::from(count)
    }

    /// The Dalvi–Suciu gadget database: `R` over the `x` indices (`1/2`),
    /// `T` over the `y` indices (`1/2`), `S_1(i,j)` per clause (prob `1`).
    pub fn to_tid(&self) -> Tid {
        let domain = self.num_x.max(self.num_y);
        let mut db = Database::new(1, domain);
        let mut probs = Vec::new();
        let half = BigRational::from_ratio(1, 2);
        for i in 0..self.num_x {
            db.insert(TupleDesc::R(i)).expect("fresh tuple");
            probs.push(half.clone());
        }
        for j in 0..self.num_y {
            db.insert(TupleDesc::T(j)).expect("fresh tuple");
            probs.push(half.clone());
        }
        for &(i, j) in &self.clauses {
            db.insert(TupleDesc::S(1, i, j)).expect("fresh tuple");
            probs.push(BigRational::one());
        }
        Tid::new(db, probs).expect("valid probabilities")
    }

    /// The triangle query `∃x∃y R(x) ∧ S_1(x,y) ∧ T(y)`.
    pub fn triangle_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(vec![
            Atom::unary(intext_tid::Relation::R, Term::Var(0)),
            Atom::binary(intext_tid::Relation::S(1), Term::Var(0), Term::Var(1)),
            Atom::unary(intext_tid::Relation::T, Term::Var(1)),
        ])
    }

    /// Counts the models **through the PQE oracle**: evaluates
    /// `Pr(q_triangle)` on the gadget TID (here by brute-force possible
    /// worlds, [`ucq_brute_force`] — the only generally correct oracle
    /// for a `#P`-hard query) and inverts the reduction.
    ///
    /// # Panics
    /// Panics if the gadget has 64 tuples or more (`m + n` plus the
    /// clause count), past what brute force enumerates.
    pub fn count_models_via_pqe(&self) -> BigUint {
        let tid = self.to_tid();
        let pr_q: BigRational = ucq_brute_force(&QueryExpr::Cq(Self::triangle_query()), &tid)
            .expect("the gadget has fewer than 64 tuples");
        // #Φ = 2^(m+n) · (1 − Pr(q)).
        let worlds = BigUint::from(1u64).shl_bits(u64::from(self.num_x + self.num_y));
        let count =
            &BigRational::new(worlds.into(), intext_numeric::BigUint::one()) * &pr_q.complement();
        debug_assert!(count.denom().is_one(), "the count is an integer");
        count.numer().magnitude().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_clause_formula() {
        // (x0 ∨ y0): 3 of 4 assignments satisfy.
        let f = Pp2Cnf::new(1, 1, vec![(0, 0)]);
        assert_eq!(f.count_models_direct().to_u64(), Some(3));
        assert_eq!(f.count_models_via_pqe().to_u64(), Some(3));
    }

    #[test]
    fn empty_formula_counts_everything() {
        let f = Pp2Cnf::new(2, 2, vec![]);
        assert_eq!(f.count_models_direct().to_u64(), Some(16));
        assert_eq!(f.count_models_via_pqe().to_u64(), Some(16));
    }

    #[test]
    fn path_and_cycle_graphs() {
        // Path: (x0∨y0)(x1∨y0)(x1∨y1).
        let path = Pp2Cnf::new(2, 2, vec![(0, 0), (1, 0), (1, 1)]);
        assert_eq!(
            path.count_models_via_pqe(),
            path.count_models_direct(),
            "path graph"
        );
        // 4-cycle: (x0∨y0)(x1∨y0)(x1∨y1)(x0∨y1).
        let cycle = Pp2Cnf::new(2, 2, vec![(0, 0), (1, 0), (1, 1), (0, 1)]);
        assert_eq!(
            cycle.count_models_via_pqe(),
            cycle.count_models_direct(),
            "cycle graph"
        );
    }

    #[test]
    fn reduction_matches_on_pseudorandom_graphs() {
        let mut state = 0xabcd_ef01_2345_6789u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..5 {
            let m = (next() % 3 + 1) as u32;
            let n = (next() % 3 + 1) as u32;
            let mut clauses = Vec::new();
            for i in 0..m {
                for j in 0..n {
                    if next() % 2 == 0 {
                        clauses.push((i, j));
                    }
                }
            }
            let f = Pp2Cnf::new(m, n, clauses);
            assert_eq!(
                f.count_models_via_pqe(),
                f.count_models_direct(),
                "trial {trial}: {f:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn clause_indices_validated() {
        let _ = Pp2Cnf::new(1, 1, vec![(1, 0)]);
    }

    #[test]
    fn triangle_query_shape() {
        assert_eq!(
            Pp2Cnf::triangle_query().to_string(),
            "∃x0 ∃x1 R(x0) ∧ S1(x0,x1) ∧ T(x1)"
        );
    }
}
