//! Grounding to lineage and circuit compilation — the intensional
//! route for queries the lifted rules reject.
//!
//! Each CQ leaf grounds to a DNF over [`TupleId`] variables: one clause
//! per homomorphism of the leaf into the database, listing the tuples
//! the homomorphism uses. The Boolean skeleton above the leaves
//! (conjunction, disjunction, negation) then compiles directly to an
//! OBDD over raw tuple ids in ascending order, and the weighted model
//! count of that OBDD is the query probability. Exponential in the
//! worst case — callers budget the tuple count — but exact on any
//! query, safe or not, monotone or not.

use intext_circuits::{EvalScratch, NodeRef, ObddManager};
use intext_numeric::ProbNum;
use intext_tid::{Database, Tid, TupleId};

use crate::brute::{tuple_weights, BruteForceError};
use crate::cq::{ConjunctiveQuery, Term};
use crate::ucq::QueryExpr;

/// Lineage of one CQ leaf: a DNF with one clause (sorted, deduplicated
/// tuple ids) per homomorphism into `db`.
pub fn ground_cq(cq: &ConjunctiveQuery, db: &Database) -> Vec<Vec<TupleId>> {
    let vars = cq.variables_in_order();
    let mut assignment: Vec<u32> = vec![0; vars.len()];
    let mut clauses = Vec::new();
    // Atoms become checkable once every variable they use is assigned;
    // checking at the earliest such depth prunes dead branches.
    let var_pos = |v: u8| vars.iter().position(|&w| w == v).expect("var is listed");
    let ready_at: Vec<usize> = cq
        .atoms
        .iter()
        .map(|a| {
            a.args
                .iter()
                .filter_map(|t| match t {
                    Term::Var(v) => Some(var_pos(*v) + 1),
                    Term::Const(_) => None,
                })
                .max()
                .unwrap_or(0)
        })
        .collect();
    fn rec(
        cq: &ConjunctiveQuery,
        db: &Database,
        vars: &[u8],
        ready_at: &[usize],
        assignment: &mut Vec<u32>,
        depth: usize,
        clauses: &mut Vec<Vec<TupleId>>,
    ) {
        let resolve = |t: &Term, assignment: &[u32], vars: &[u8]| match t {
            Term::Const(c) => *c,
            Term::Var(v) => {
                let pos = vars.iter().position(|w| w == v).expect("var is listed");
                assignment[pos]
            }
        };
        let tuple_of = |i: usize, assignment: &[u32]| {
            let atom = &cq.atoms[i];
            match (atom.rel, atom.args.as_slice()) {
                (intext_tid::Relation::R, [t]) => db.r_tuple(resolve(t, assignment, vars)),
                (intext_tid::Relation::T, [t]) => db.t_tuple(resolve(t, assignment, vars)),
                (intext_tid::Relation::S(s), [t1, t2]) => db.s_tuple(
                    s,
                    resolve(t1, assignment, vars),
                    resolve(t2, assignment, vars),
                ),
                _ => None,
            }
        };
        for (i, &ready) in ready_at.iter().enumerate() {
            if ready == depth && tuple_of(i, assignment).is_none() {
                return;
            }
        }
        if depth == vars.len() {
            let mut clause: Vec<TupleId> = (0..cq.atoms.len())
                .map(|i| tuple_of(i, assignment).expect("checked at its ready depth"))
                .collect();
            clause.sort();
            clause.dedup();
            clauses.push(clause);
            return;
        }
        for value in 0..db.domain_size() {
            assignment[depth] = value;
            rec(cq, db, vars, ready_at, assignment, depth + 1, clauses);
        }
    }
    rec(cq, db, &vars, &ready_at, &mut assignment, 0, &mut clauses);
    clauses
}

fn build(m: &mut ObddManager, expr: &QueryExpr, db: &Database) -> NodeRef {
    match expr {
        QueryExpr::Cq(cq) => {
            let mut node = NodeRef::FALSE;
            for clause in ground_cq(cq, db) {
                let mut conj = NodeRef::TRUE;
                for id in clause {
                    let lit = m.literal(id.0, true);
                    conj = m.and(conj, lit);
                }
                node = m.or(node, conj);
            }
            node
        }
        QueryExpr::And(parts) => {
            let mut node = NodeRef::TRUE;
            for part in parts {
                let sub = build(m, part, db);
                node = m.and(node, sub);
            }
            node
        }
        QueryExpr::Or(parts) => {
            let mut node = NodeRef::FALSE;
            for part in parts {
                let sub = build(m, part, db);
                node = m.or(node, sub);
            }
            node
        }
        QueryExpr::Not(inner) => {
            let sub = build(m, inner, db);
            m.not(sub)
        }
    }
}

/// Compiles a query's grounded lineage to an OBDD over raw tuple ids
/// (ascending variable order). The pair plugs straight into the
/// engine's degenerate-lineage artifact type. The apply steps leave
/// every intermediate function in the arena, so it is compacted to the
/// root's reachable nodes: the manager holds exactly what a walk visits
/// and what a cache budget counts.
pub fn ground_circuit(expr: &QueryExpr, db: &Database) -> (ObddManager, NodeRef) {
    let mut m = ObddManager::new((0..db.len() as u32).collect());
    let root = build(&mut m, expr, db);
    let (m, roots) = m.compact(&[root]);
    (m, roots[0])
}

/// Probability by grounded-circuit weighted model counting, in any
/// [`ProbNum`] type: one OBDD pass over the grounded lineage, with each
/// tuple's `1 − p` computed once.
pub fn ground_circuit_probability<N: ProbNum>(expr: &QueryExpr, tid: &Tid) -> N {
    let (m, root) = ground_circuit(expr, tid.database());
    let mut scratch = EvalScratch::new();
    scratch.prepare(m.order().iter().copied(), |var| {
        N::from_rational(tid.prob(TupleId(var)))
    });
    m.probability(root, &mut scratch)
}

/// Brute force over all `2^|D|` worlds, in any [`ProbNum`] type,
/// independent of both the lifted rules and the circuit compiler: builds
/// each world as a sub-database, evaluates the query extensionally, and
/// adds each satisfying world's weight — a product over the tuples in
/// id order of `p` or `1 − p` — in world order. The differential oracle
/// for `tests/engine_ucq.rs`.
pub fn ucq_brute_force<N: ProbNum>(expr: &QueryExpr, tid: &Tid) -> Result<N, BruteForceError> {
    let db = tid.database();
    let m = db.len();
    if m >= 64 {
        return Err(BruteForceError::TooManyTuples(m));
    }
    let weights: Vec<(N, N)> = tuple_weights(tid);
    let mut total = N::zero();
    for world in 0u64..(1u64 << m) {
        let mut sub = Database::new(db.k(), db.domain_size());
        for i in 0..m {
            if world >> i & 1 == 1 {
                sub.insert(db.describe(TupleId(i as u32)))
                    .expect("tuples re-insert into an equal-shape database");
            }
        }
        if expr.eval(&sub) {
            let weight = weights
                .iter()
                .enumerate()
                .fold(N::one(), |w, (i, (p, absent))| {
                    w.mul(if world >> i & 1 == 1 { p } else { absent })
                });
            total = total.add(&weight);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::Atom;
    use intext_numeric::BigRational;
    use intext_tid::{Relation, TupleDesc};

    fn fixture() -> Tid {
        let mut db = Database::new(2, 3);
        let mut descs = Vec::new();
        for a in 0..3 {
            descs.push(TupleDesc::R(a));
            descs.push(TupleDesc::T(a));
        }
        for (a, b) in [(0, 1), (1, 1), (2, 0)] {
            descs.push(TupleDesc::S(1, a, b));
        }
        for (a, b) in [(0, 1), (1, 2)] {
            descs.push(TupleDesc::S(2, a, b));
        }
        let mut probs = Vec::new();
        for (i, d) in descs.into_iter().enumerate() {
            db.insert(d).unwrap();
            probs.push(BigRational::from_ratio(i as i64 % 4 + 1, 6));
        }
        Tid::new(db, probs).unwrap()
    }

    fn h0_union() -> QueryExpr {
        // R(x),S1(x,y) | S1(x,y),T(y) — unsafe, so the ground route is
        // its home.
        QueryExpr::Or(vec![
            QueryExpr::Cq(ConjunctiveQuery::new(vec![
                Atom::unary(Relation::R, Term::Var(0)),
                Atom::binary(Relation::S(1), Term::Var(0), Term::Var(1)),
            ])),
            QueryExpr::Cq(ConjunctiveQuery::new(vec![
                Atom::binary(Relation::S(1), Term::Var(0), Term::Var(1)),
                Atom::unary(Relation::T, Term::Var(1)),
            ])),
        ])
    }

    #[test]
    fn grounding_enumerates_homomorphisms() {
        let tid = fixture();
        let cq = ConjunctiveQuery::new(vec![
            Atom::unary(Relation::R, Term::Var(0)),
            Atom::binary(Relation::S(1), Term::Var(0), Term::Var(1)),
        ]);
        let clauses = ground_cq(&cq, tid.database());
        // S1 holds (0,1), (1,1), (2,0) and R holds 0,1,2 → three
        // homomorphisms, each pairing R(a) with S1(a,b).
        assert_eq!(clauses.len(), 3);
        for clause in &clauses {
            assert_eq!(clause.len(), 2);
        }
    }

    #[test]
    fn circuit_matches_brute_force_including_negation() {
        let tid = fixture();
        let exprs = vec![
            h0_union(),
            // Non-monotone: S2 hits without any R support.
            QueryExpr::And(vec![
                QueryExpr::Cq(ConjunctiveQuery::new(vec![Atom::binary(
                    Relation::S(2),
                    Term::Var(0),
                    Term::Var(1),
                )])),
                QueryExpr::Not(Box::new(QueryExpr::Cq(ConjunctiveQuery::new(vec![
                    Atom::unary(Relation::R, Term::Var(0)),
                ])))),
            ]),
            // A ground atom conjoined with a constant-bound join.
            QueryExpr::Cq(ConjunctiveQuery::new(vec![
                Atom::binary(Relation::S(1), Term::Var(0), Term::Const(1)),
                Atom::unary(Relation::T, Term::Const(1)),
            ])),
        ];
        for expr in exprs {
            let exact: BigRational = ground_circuit_probability(&expr, &tid);
            assert_eq!(exact, ucq_brute_force(&expr, &tid).unwrap(), "on {expr:?}");
            let f: f64 = ground_circuit_probability(&expr, &tid);
            let bf: f64 = ucq_brute_force(&expr, &tid).unwrap();
            assert!((f - bf).abs() < 1e-12, "f64 on {expr:?}");
            assert!((f - exact.to_f64()).abs() < 1e-12);
        }
    }

    #[test]
    fn grounded_arena_holds_only_the_roots_nodes() {
        // The unsafe join R(x), S1(x,y), T(y) on the complete k = 1,
        // domain-6 instance minus one S1 tuple: the apply steps create
        // several times more nodes than the final function keeps.
        let mut db = Database::new(1, 6);
        let mut dropped = false;
        for (_, desc) in intext_tid::complete_database(1, 6).iter() {
            if !dropped && matches!(desc, TupleDesc::S(..)) {
                dropped = true;
                continue;
            }
            db.insert(desc).unwrap();
        }
        let expr = QueryExpr::Cq(ConjunctiveQuery::new(vec![
            Atom::unary(Relation::R, Term::Var(0)),
            Atom::binary(Relation::S(1), Term::Var(0), Term::Var(1)),
            Atom::unary(Relation::T, Term::Var(1)),
        ]));
        let (m, root) = ground_circuit(&expr, &db);
        assert_eq!(m.arena_size(), m.size(root));
    }

    #[test]
    fn empty_matches_compile_to_terminals() {
        let tid = fixture();
        // S2(x,x) has no matching tuples in the fixture.
        let expr = QueryExpr::Cq(ConjunctiveQuery::new(vec![Atom::binary(
            Relation::S(2),
            Term::Var(0),
            Term::Var(0),
        )]));
        let (_, root) = ground_circuit(&expr, tid.database());
        assert_eq!(root, NodeRef::FALSE);
        assert!(ground_circuit_probability::<BigRational>(&expr, &tid).is_zero());
        let negated = QueryExpr::Not(Box::new(expr));
        let (_, root) = ground_circuit(&negated, tid.database());
        assert_eq!(root, NodeRef::TRUE);
    }
}
