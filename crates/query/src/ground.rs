//! Grounding to lineage and circuit compilation — the intensional
//! route for queries the lifted rules reject.
//!
//! Each CQ leaf grounds to a DNF over [`TupleId`] variables: one clause
//! per homomorphism of the leaf into the database, listing the tuples
//! the homomorphism uses. The Boolean skeleton above the leaves
//! (conjunction, disjunction, negation) then compiles directly to an
//! OBDD over the tuple ids, and the weighted model count of that OBDD
//! is the query probability. The OBDD's variable order follows the
//! query's hierarchy: tuples grouped by the constant of the root
//! variable (the one in every atom of a leaf), `R(c)`, then the `S`
//! tuples grouped at `c`, then `T(c)`, for each constant `c` in turn.
//! For a hierarchical, inversion-free query that order gives an OBDD
//! linear in the instance (Jha–Suciu, ICDT 2011). Unsafe queries and
//! queries with an inversion keep a fixed interleaving and stay
//! exponential in the worst case — callers budget the tuple count — but
//! the route is exact on any query, safe or not, monotone or not.

use intext_circuits::{EvalScratch, NodeRef, ObddManager};
use intext_numeric::ProbNum;
use intext_tid::{Database, Relation, Tid, TupleDesc, TupleId};

use crate::brute::{tuple_weights, BruteForceError};
use crate::cq::{ConjunctiveQuery, Term};
use crate::lifted::separators;
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
            let mut terms: Vec<NodeRef> = ground_cq(cq, db)
                .into_iter()
                .map(|clause| {
                    let mut conj = NodeRef::TRUE;
                    for id in clause {
                        let lit = m.literal(id.0, true);
                        conj = m.and(conj, lit);
                    }
                    conj
                })
                .collect();
            // A balanced tree of `∨`s: neighbouring clauses share their
            // root constant, so each partial disjunction stays narrow,
            // where a left fold re-walks the whole growing disjunction
            // once per clause. The reduced OBDD is the same either way.
            while terms.len() > 1 {
                terms = terms
                    .chunks(2)
                    .map(|pair| match *pair {
                        [a, b] => m.or(a, b),
                        _ => pair[0],
                    })
                    .collect();
            }
            terms.pop().unwrap_or(NodeRef::FALSE)
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

/// The variable order of [`ground_circuit`] for `expr` on `db`: every
/// tuple id once, sorted by its group's constant, then `R` / `S` / `T`,
/// then the other argument, then the `S` index. `S_i`'s grouping
/// position comes from the CQ leaves' root variables: leaves with one
/// root decide first, and a leaf with several takes the first that
/// agrees with them. `S_i` falls back to its first position when the
/// leaves disagree (an inversion), when a leaf naming `S_i` has no
/// root, or when no leaf names it. The roots are read off the leaves
/// as given; the engine passes normalized leaves, so every spelling that
/// shares a ground cache key gets the same order.
fn hierarchy_order(expr: &QueryExpr, db: &Database) -> Vec<u32> {
    // Per S_i, the positions still open to it: bit p is position p.
    let mut open = vec![0b11u8; usize::from(db.k().max(expr.required_k())) + 1];
    let mut several = Vec::new();
    for leaf in expr.leaves() {
        // Per root, the positions it leaves each S_i of the leaf.
        let choices: Vec<Vec<u8>> = separators(leaf)
            .into_iter()
            .map(|root| {
                let mut masks = vec![0b11u8; open.len()];
                for atom in &leaf.atoms {
                    if let Relation::S(i) = atom.rel {
                        let at = (0..2).filter(|&p| atom.args[p] == Term::Var(root));
                        masks[usize::from(i)] &= at.fold(0, |m, p| m | 1 << p);
                    }
                }
                masks
            })
            .collect();
        match choices.len() {
            0 => {
                for atom in &leaf.atoms {
                    if let Relation::S(i) = atom.rel {
                        open[usize::from(i)] = 0;
                    }
                }
            }
            1 => open.iter_mut().zip(&choices[0]).for_each(|(o, m)| *o &= m),
            _ => several.push(choices),
        }
    }
    for choices in several {
        // A position already lost to a disagreement cannot be agreed on.
        let agrees = |masks: &&Vec<u8>| masks.iter().zip(&open).all(|(m, o)| m & o != 0 || *o == 0);
        let pick = choices.iter().find(agrees).unwrap_or(&choices[0]);
        open.iter_mut().zip(pick).for_each(|(o, m)| *o &= m);
    }
    let mut keyed: Vec<((u32, u8, u32, u8), u32)> = db
        .iter()
        .map(|(id, desc)| {
            let key = match desc {
                TupleDesc::R(c) => (c, 0, 0, 0),
                TupleDesc::S(i, a, b) if open[usize::from(i)] == 0b10 => (b, 1, a, i),
                TupleDesc::S(i, a, b) => (a, 1, b, i),
                TupleDesc::T(c) => (c, 2, 0, 0),
            };
            (key, id.0)
        })
        .collect();
    keyed.sort_unstable();
    let order: Vec<u32> = keyed.into_iter().map(|(_, id)| id).collect();
    debug_assert!({
        let mut ids = order.clone();
        ids.sort_unstable();
        ids.into_iter().eq(0..db.len() as u32)
    });
    order
}

/// Compiles a query's grounded lineage to an OBDD in the query's
/// hierarchy order. The order takes the domain constants `c` in turn:
/// `R(c)`, then the `S` tuples grouped at `c`, then `T(c)`. An `S_i`
/// tuple is grouped at its argument in the position the root variable
/// (one in every atom of a CQ leaf) takes in `S_i`'s atoms; within a
/// group the other argument `o` ascends, with `S1(c,o), S2(c,o), …`
/// side by side. For a hierarchical, inversion-free query each leaf's
/// lineage is then a disjunction, over the groups, of functions of one
/// group's tuples, so the OBDD is linear in the instance (Jha–Suciu,
/// *Knowledge compilation meets database theory*, ICDT 2011), where
/// ascending tuple ids, which put every `R` tuple before every `S`
/// tuple, need a width of about `2^|R|` even on `R(x), S1(x,y)`. When
/// the leaves disagree on a position (an inversion) or a leaf has no
/// root, `S_i` is grouped at its first argument: a fixed interleaving
/// that stays exponential on unsafe queries, only narrower.
///
/// The roots are read off `expr`'s leaves as written, so two spellings
/// of one query (renamed variables, a redundant atom) may get different
/// orders. Callers who want an order independent of spelling pass
/// normalized leaves ([`QueryExpr::normalize_leaves`]), as the engine
/// does: it normalizes once when it resolves the query and grounds that.
///
/// The pair plugs straight into the engine's degenerate-lineage artifact
/// type. The apply steps leave every intermediate function in the
/// arena, so it is compacted to the root's reachable nodes: the manager
/// holds exactly what a walk visits and what a cache budget counts.
pub fn ground_circuit(expr: &QueryExpr, db: &Database) -> (ObddManager, NodeRef) {
    let mut m = ObddManager::new(hierarchy_order(expr, db));
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
    use crate::parse::parse_query;
    use intext_numeric::BigRational;
    use intext_tid::{complete_database, Vocabulary};

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

    /// The complete k = 1, domain-6 instance minus one S1 tuple, and the
    /// unsafe join R(x), S1(x,y), T(y) on it: compile-churn's grounded
    /// shape.
    fn near_complete_unsafe_join() -> (Database, QueryExpr) {
        let mut db = Database::new(1, 6);
        let mut dropped = false;
        for (_, desc) in complete_database(1, 6).iter() {
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
        (db, expr)
    }

    #[test]
    fn grounded_arena_holds_only_the_roots_nodes() {
        // The apply steps create several times more nodes than the
        // final function keeps.
        let (db, expr) = near_complete_unsafe_join();
        let (m, root) = ground_circuit(&expr, &db);
        assert_eq!(m.arena_size(), m.size(root));
    }

    #[test]
    fn hierarchical_queries_ground_to_linear_obdds() {
        // 2|D| nodes holds with room at every domain; ascending tuple
        // ids exceed it by domain 8 (2,295 nodes for R(x), S1(x,y) on
        // 144 tuples), and S1(x,y), S2(x,y) takes 131,070 at domain 4.
        // Domains ascend so that an exponential order fails before the
        // domain-16 compile.
        let voc = Vocabulary::h(2);
        for text in [
            "R(x), S1(x,y)",
            "S2(x,y), T(y)",
            "S1(x,y), S2(x,y)",
            "R(x), S1(x,y), S2(x,z)",
        ] {
            let expr = parse_query(text, &voc).unwrap();
            for domain in [4, 8, 16] {
                let db = complete_database(2, domain);
                let (m, root) = ground_circuit(&expr, &db);
                assert!(
                    m.size(root) <= 2 * db.len(),
                    "{text} at domain {domain}: {} nodes on {} tuples",
                    m.size(root),
                    db.len()
                );
            }
        }
    }

    #[test]
    fn unsafe_join_grounds_in_the_fixed_interleaving() {
        // No root variable: each R(c), S1(c,·), T(c) group still sits
        // together, which keeps the OBDD at 1,467 nodes where
        // ascending tuple ids take 7,070.
        let (db, expr) = near_complete_unsafe_join();
        let (m, root) = ground_circuit(&expr, &db);
        assert!(m.size(root) <= 1_500, "{} nodes", m.size(root));
    }

    #[test]
    fn grouping_follows_the_root_variables_position() {
        let voc = Vocabulary::h(2);
        let db = complete_database(2, 2);
        let order = |text: &str| -> String {
            let ids = hierarchy_order(&parse_query(text, &voc).unwrap(), &db);
            let descs: Vec<String> = ids
                .into_iter()
                .map(|id| db.describe(TupleId(id)).to_string())
                .collect();
            descs.join(" ")
        };
        // Root x sits first in S1 and S2: group c holds S_i(c, ·).
        let by_first = "R(0) S1(0,0) S2(0,0) S1(0,1) S2(0,1) T(0) \
                        R(1) S1(1,0) S2(1,0) S1(1,1) S2(1,1) T(1)";
        assert_eq!(order("R(x), S1(x,y), S2(x,z)"), by_first);
        // Both x and y are roots of S1(x,y), S2(x,y); the first agrees.
        assert_eq!(order("S1(x,y), S2(x,y)"), by_first);
        // Root y sits second in S2; S1, which no leaf names, keeps its
        // first position.
        let s2_by_second = "R(0) S1(0,0) S2(0,0) S1(0,1) S2(1,0) T(0) \
                            R(1) S1(1,0) S2(0,1) S1(1,1) S2(1,1) T(1)";
        assert_eq!(order("S2(x,y), T(y)"), s2_by_second);
        // A two-root leaf takes the root that agrees with the other
        // leaves: x for S1(x,y), S2(x,y) above; here y, so both S_i
        // group by their second argument.
        assert_eq!(
            order("S1(x,y), T(y) | S2(x,y), S1(x,y)"),
            "R(0) S1(0,0) S2(0,0) S1(1,0) S2(1,0) T(0) \
             R(1) S1(0,1) S2(0,1) S1(1,1) S2(1,1) T(1)"
        );
        // An inversion (S1 grouped by x in one leaf, by y in the other)
        // and a rootless leaf both fall back to the first position.
        assert_eq!(order("R(x), S1(x,y) | S1(x,y), T(y)"), by_first);
        assert_eq!(order("R(x), S1(x,y), T(y)"), by_first);
        // S1's inversion leaves the two-root leaf free to agree with
        // S2(x,y), T(y) on S2.
        assert_eq!(
            order("R(x), S1(x,y) | S1(x,y), T(y) | S2(x,y), T(y) | S1(x,y), S2(x,y)"),
            s2_by_second
        );
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
