//! Theorem 6.2: queries with equal Euler characteristic are equivalent
//! for PQE (item a) and for d-D compilability (items b, c).
//!
//! The constructive content: given a step sequence `φ → φ′`, each step's
//! pair-function `ψ_i` is degenerate, hence PTIME-compilable
//! (Proposition 3.7); an `Add` step turns a lineage d-D `C` into
//! `C ∨ C_{ψ}` (deterministic) and a `Remove` step into `¬(¬C ∨ C_{ψ})`.
//! At the probability level the same steps give
//! `Pr(Q_{φ_i}) = Pr(Q_{φ_{i-1}}) ± Pr(Q_{ψ_i})`, which is the PTIME
//! Turing reduction of item (a) — and the engine behind Proposition 6.4's
//! hardness transfer to non-monotone queries.

use intext_boolfn::BoolFn;
use intext_circuits::{Circuit, GateId};
use intext_lineage::compile_degenerate_obdd;
use intext_numeric::BigRational;
use intext_tid::{Database, Tid};

use crate::pipeline::CompileError;
use crate::transform::{steps_between, Step, StepKind, TransformError};

/// Extends a lineage circuit for `Q_φ` into one for `Q_φ′` by replaying
/// a `φ → φ′` step sequence (Theorem 6.2 (b)).
///
/// `root` must capture `Lin(Q_φ, D)` inside `circuit`; the return value
/// is the root of `Lin(Q_φ′, D)` in the same arena. Determinism of the
/// introduced `∨` gates holds because lineage is a homomorphism and the
/// step preconditions make the combined functions disjoint over `V`.
pub fn transfer_circuit(
    circuit: &mut Circuit,
    root: GateId,
    n: u8,
    steps: &[Step],
    db: &Database,
) -> Result<GateId, CompileError> {
    let mut cur = root;
    for step in steps {
        let pair = BoolFn::from_sat(n, [step.nu, step.partner()]);
        let lin = compile_degenerate_obdd(&pair, db)?;
        let pair_gate = lin.manager.copy_into_circuit(lin.root, circuit);
        cur = match step.kind {
            StepKind::Add => circuit.or(vec![cur, pair_gate]),
            StepKind::Remove => {
                let neg = circuit.not(cur);
                let or = circuit.or(vec![neg, pair_gate]);
                circuit.not(or)
            }
        };
    }
    Ok(cur)
}

/// Theorem 6.2 (a), constructively: computes `Pr(Q_φ′)` from a given
/// `Pr(Q_φ)` using one PTIME-computable correction per step — the
/// Turing reduction `PQE(Q_φ′) ≤_T PQE(Q_φ)` in executable form.
pub fn pqe_via_transfer(
    source_prob: &BigRational,
    n: u8,
    steps: &[Step],
    tid: &Tid,
) -> Result<BigRational, CompileError> {
    let mut acc = source_prob.clone();
    for step in steps {
        let pair = BoolFn::from_sat(n, [step.nu, step.partner()]);
        let lin = compile_degenerate_obdd(&pair, tid.database())?;
        let p: BigRational = lin.probability(tid);
        acc = match step.kind {
            StepKind::Add => &acc + &p,
            StepKind::Remove => &acc - &p,
        };
    }
    Ok(acc)
}

/// Convenience: full Theorem 6.2 (a) reduction between two functions of
/// equal Euler characteristic, given an oracle value for the source.
pub fn pqe_between(
    phi_source: &BoolFn,
    phi_target: &BoolFn,
    source_prob: &BigRational,
    tid: &Tid,
) -> Result<BigRational, TransferError> {
    let steps = steps_between(phi_source, phi_target).map_err(TransferError::Transform)?;
    pqe_via_transfer(source_prob, phi_source.num_vars(), &steps, tid)
        .map_err(TransferError::Compile)
}

/// Errors from the full transfer reduction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferError {
    /// The two functions are not ≃-equivalent.
    Transform(TransformError),
    /// A degenerate pair failed to compile.
    Compile(CompileError),
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::Transform(e) => write!(f, "{e}"),
            TransferError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TransferError {}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::phi9;
    use intext_circuits::verify;
    use intext_query::{pqe_brute_force, HQuery};
    use intext_tid::{random_database, random_tid, DbGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_tid(k: u8, seed: u64) -> Tid {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_database(
            &DbGenConfig {
                k,
                domain_size: 2,
                density: 0.7,
                prob_denominator: 6,
            },
            &mut rng,
        );
        random_tid(db, 6, &mut rng)
    }

    #[test]
    fn circuit_transfer_from_bottom_equals_direct_compilation_semantics() {
        // Transfer ⊥ → phi9 and check lineage semantics world by world.
        let tid = sample_tid(3, 1);
        let db = tid.database();
        let steps = steps_between(&BoolFn::bottom(4), &phi9()).unwrap();
        let mut circuit = Circuit::new();
        let bot = circuit.constant(false);
        let root = transfer_circuit(&mut circuit, bot, 4, &steps, db).unwrap();
        let q = HQuery::new(phi9());
        if db.len() < 20 {
            for world in 0..(1u64 << db.len()) {
                assert_eq!(
                    circuit.eval(root, &|v| (world >> v) & 1 == 1),
                    q.lineage_eval(db, world),
                    "world {world:#b}"
                );
            }
        }
        let expect: BigRational = pqe_brute_force(&q, &tid).unwrap();
        let got = circuit.probability(
            root,
            |v| tid.prob(intext_tid::TupleId(v)).clone(),
            &mut intext_circuits::EvalScratch::new(),
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn transferred_circuit_is_a_dd() {
        let tid = sample_tid(2, 2);
        let db = tid.database();
        if db.len() > 14 {
            return; // keep the exhaustive determinism check cheap
        }
        let zero_target = BoolFn::from_sat(3, [0b011u32, 0b111, 0b101, 0b001]);
        assert_eq!(zero_target.euler_characteristic(), 0);
        let steps = steps_between(&BoolFn::bottom(3), &zero_target).unwrap();
        let mut circuit = Circuit::new();
        let bot = circuit.constant(false);
        let root = transfer_circuit(&mut circuit, bot, 3, &steps, db).unwrap();
        verify::check_dd(&circuit, root).expect("transferred circuit is a d-D");
    }

    #[test]
    fn pqe_reduction_between_equal_euler_queries() {
        // Pr(Q_target) reconstructed from Pr(Q_source) + corrections,
        // for a *hard* pair (e = 2): brute force plays the oracle.
        let tid = sample_tid(2, 3);
        let source = BoolFn::from_sat(3, [0b000u32, 0b011]); // e = 2
        let target = BoolFn::from_sat(3, [0b101u32, 0b110]); // e = 2
        assert_eq!(source.euler_characteristic(), 2);
        assert_eq!(target.euler_characteristic(), 2);
        let source_prob: BigRational = pqe_brute_force(&HQuery::new(source.clone()), &tid).unwrap();
        let via_transfer = pqe_between(&source, &target, &source_prob, &tid).unwrap();
        let direct = pqe_brute_force(&HQuery::new(target), &tid).unwrap();
        assert_eq!(via_transfer, direct);
    }

    #[test]
    fn mismatched_euler_rejected() {
        let tid = sample_tid(2, 4);
        let a = BoolFn::bottom(3);
        let b = intext_boolfn::max_euler_fn(3);
        let err = pqe_between(&a, &b, &BigRational::zero(), &tid).unwrap_err();
        assert!(matches!(
            err,
            TransferError::Transform(TransformError::EulerMismatch(_, _))
        ));
    }
}
