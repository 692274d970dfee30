//! Lifted (extensional) inference for safe UCQs, after Dalvi–Suciu.
//!
//! The evaluator recurses over the *structure* of a union of
//! conjunctive queries, never over worlds:
//!
//! - **Independent union** — disjuncts that share no relation symbol
//!   touch disjoint tuples, so `P(∨ᵢ Qᵢ) = 1 − Πᵢ (1 − P(Qᵢ))`.
//! - **Inclusion–exclusion** — disjuncts entangled through shared
//!   symbols expand as `Σ_{∅≠S} (−1)^{|S|+1} P(∧_{i∈S} Qᵢ)`, with
//!   each conjunction formed by merging CQs with variables renamed
//!   apart.
//! - **Independent join** — within one CQ, atom groups linked by
//!   neither a shared variable nor a shared relation symbol ground to
//!   disjoint tuples, so their probabilities multiply.
//! - **Separator** — a variable occurring in every atom of a connected
//!   CQ makes distinct groundings tuple-disjoint:
//!   `P = 1 − Π_{a ∈ domain} (1 − P(Q[x:=a]))`.
//! - **Ground base** — a fully ground CQ is a product of tuple
//!   probabilities (absent tuples contribute zero).
//!
//! A query where the recursion gets stuck (a connected, non-ground CQ
//! with no workable separator) is *unsafe* and must be evaluated
//! intensionally. [`is_safe_ucq`] runs the same recursion
//! *symbolically*: instead of grounding a separator over the concrete
//! domain, it substitutes one fresh marker constant **and** every
//! constant already occurring in the CQ — covering every constant
//! equality pattern a concrete domain can produce. Control flow below
//! depends only on that pattern (atom equality, variable sharing,
//! relation symbols), so a symbolically safe query can never get stuck
//! at evaluation time. The test is conservative: some queries it
//! rejects may still be tractable.

use std::collections::BTreeSet;

use intext_numeric::ProbNum;
use intext_tid::{Database, Relation, Tid, TupleId};

use crate::cq::{Atom, ConjunctiveQuery, Term};
use crate::ucq::{merge_cqs, Ucq};

/// Inclusion–exclusion expands `2^m − 1` subsets; beyond this many
/// entangled disjuncts the query is treated as unsafe.
const MAX_INCLUSION_EXCLUSION: usize = 12;

fn atom_vars(atom: &Atom) -> BTreeSet<u8> {
    atom.args
        .iter()
        .filter_map(|t| match t {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        })
        .collect()
}

fn atom_is_ground(atom: &Atom) -> bool {
    atom.args.iter().all(|t| matches!(t, Term::Const(_)))
}

fn cq_constants(cq: &ConjunctiveQuery) -> BTreeSet<u32> {
    cq.atoms
        .iter()
        .flat_map(|a| a.args.iter())
        .filter_map(|t| match t {
            Term::Const(c) => Some(*c),
            Term::Var(_) => None,
        })
        .collect()
}

fn substitute(cq: &ConjunctiveQuery, var: u8, value: u32) -> ConjunctiveQuery {
    let atoms = cq
        .atoms
        .iter()
        .map(|a| Atom {
            rel: a.rel,
            args: a
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) if *v == var => Term::Const(value),
                    other => *other,
                })
                .collect(),
        })
        .collect();
    ConjunctiveQuery::new(atoms)
}

/// Removes exact duplicate atoms, keeping first occurrences in order.
fn dedup_atoms(cq: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut seen: BTreeSet<Atom> = BTreeSet::new();
    let atoms = cq
        .atoms
        .iter()
        .filter(|a| seen.insert((*a).clone()))
        .cloned()
        .collect();
    ConjunctiveQuery::new(atoms)
}

/// Variables occurring in *every* atom — separator candidates (and the
/// root variables the grounding order groups by), in ascending order
/// for determinism.
pub(crate) fn separators(cq: &ConjunctiveQuery) -> Vec<u8> {
    let mut iter = cq.atoms.iter();
    let Some(first) = iter.next() else {
        return Vec::new();
    };
    let mut common = atom_vars(first);
    for atom in iter {
        let vars = atom_vars(atom);
        common.retain(|v| vars.contains(v));
    }
    common.into_iter().collect()
}

/// Groups items into connected components under `linked`.
fn components<T: Clone>(items: &[T], linked: impl Fn(&T, &T) -> bool) -> Vec<Vec<T>> {
    let n = items.len();
    let mut group = vec![usize::MAX; n];
    let mut out: Vec<Vec<T>> = Vec::new();
    for start in 0..n {
        if group[start] != usize::MAX {
            continue;
        }
        let id = out.len();
        group[start] = id;
        let mut stack = vec![start];
        let mut members = Vec::new();
        while let Some(i) = stack.pop() {
            members.push(items[i].clone());
            for j in 0..n {
                if group[j] == usize::MAX && linked(&items[i], &items[j]) {
                    group[j] = id;
                    stack.push(j);
                }
            }
        }
        out.push(members);
    }
    out
}

fn cq_relations(cq: &ConjunctiveQuery) -> BTreeSet<Relation> {
    cq.atoms.iter().map(|a| a.rel).collect()
}

/// CQs entangled iff they share a relation symbol.
fn union_components(cqs: &[ConjunctiveQuery]) -> Vec<Vec<ConjunctiveQuery>> {
    components(cqs, |a, b| !cq_relations(a).is_disjoint(&cq_relations(b)))
}

/// Atoms entangled iff they share a variable or a relation symbol.
fn atom_components(atoms: &[Atom]) -> Vec<Vec<Atom>> {
    components(atoms, |a, b| {
        a.rel == b.rel || !atom_vars(a).is_disjoint(&atom_vars(b))
    })
}

fn ground_tuple(db: &Database, atom: &Atom) -> Option<TupleId> {
    match (atom.rel, atom.args.as_slice()) {
        (Relation::R, [Term::Const(a)]) => db.r_tuple(*a),
        (Relation::T, [Term::Const(b)]) => db.t_tuple(*b),
        (Relation::S(i), [Term::Const(a), Term::Const(b)]) => db.s_tuple(i, *a, *b),
        _ => None,
    }
}

fn eval_union<N: ProbNum>(cqs: &[ConjunctiveQuery], tid: &Tid) -> Option<N> {
    if cqs.iter().any(|c| c.atoms.is_empty()) {
        return Some(N::one());
    }
    if cqs.is_empty() {
        return Some(N::zero());
    }
    let comps = union_components(cqs);
    if comps.len() > 1 {
        let mut miss = N::one();
        for comp in &comps {
            let p = eval_union::<N>(comp, tid)?;
            miss = miss.mul(&p.complement());
        }
        return Some(miss.complement());
    }
    if cqs.len() > 1 {
        if cqs.len() > MAX_INCLUSION_EXCLUSION {
            return None;
        }
        let mut total = N::zero();
        for mask in 1u32..(1u32 << cqs.len()) {
            let mut merged = ConjunctiveQuery::new(Vec::new());
            for (i, cq) in cqs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    merged = merge_cqs(&merged, cq)?;
                }
            }
            let p = eval_cq::<N>(&merged, tid)?;
            total = if mask.count_ones() % 2 == 1 {
                total.add(&p)
            } else {
                total.sub(&p)
            };
        }
        return Some(total);
    }
    eval_cq::<N>(&cqs[0], tid)
}

fn eval_cq<N: ProbNum>(cq: &ConjunctiveQuery, tid: &Tid) -> Option<N> {
    let cq = dedup_atoms(cq);
    if cq.atoms.is_empty() {
        return Some(N::one());
    }
    if cq.atoms.iter().all(atom_is_ground) {
        // Distinct ground atoms are distinct tuples, hence independent.
        let mut p = N::one();
        for atom in &cq.atoms {
            match ground_tuple(tid.database(), atom) {
                Some(id) => p = p.mul(&N::from_rational(tid.prob(id))),
                None => return Some(N::zero()),
            }
        }
        return Some(p);
    }
    let comps = atom_components(&cq.atoms);
    if comps.len() > 1 {
        let mut p = N::one();
        for atoms in comps {
            let q = eval_cq::<N>(&ConjunctiveQuery::new(atoms), tid)?;
            p = p.mul(&q);
        }
        return Some(p);
    }
    for sep in separators(&cq) {
        let mut miss = Some(N::one());
        for a in 0..tid.database().domain_size() {
            match eval_cq::<N>(&substitute(&cq, sep, a), tid) {
                Some(p) => {
                    miss = miss.map(|m| m.mul(&p.complement()));
                }
                None => {
                    miss = None;
                    break;
                }
            }
        }
        if let Some(miss) = miss {
            return Some(miss.complement());
        }
    }
    None
}

fn safe_union(cqs: &[ConjunctiveQuery]) -> bool {
    if cqs.iter().any(|c| c.atoms.is_empty()) || cqs.is_empty() {
        return true;
    }
    let comps = union_components(cqs);
    if comps.len() > 1 {
        return comps.iter().all(|c| safe_union(c));
    }
    if cqs.len() > 1 {
        if cqs.len() > MAX_INCLUSION_EXCLUSION {
            return false;
        }
        for mask in 1u32..(1u32 << cqs.len()) {
            let mut merged = ConjunctiveQuery::new(Vec::new());
            for (i, cq) in cqs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    match merge_cqs(&merged, cq) {
                        Some(m) => merged = m,
                        None => return false,
                    }
                }
            }
            if !safe_cq(&merged) {
                return false;
            }
        }
        return true;
    }
    safe_cq(&cqs[0])
}

fn safe_cq(cq: &ConjunctiveQuery) -> bool {
    let cq = dedup_atoms(cq);
    if cq.atoms.is_empty() || cq.atoms.iter().all(atom_is_ground) {
        return true;
    }
    let comps = atom_components(&cq.atoms);
    if comps.len() > 1 {
        return comps
            .iter()
            .all(|atoms| safe_cq(&ConjunctiveQuery::new(atoms.clone())));
    }
    'sep: for sep in separators(&cq) {
        // One fresh marker (distinct from everything) plus every
        // occurring constant covers all equality patterns a concrete
        // domain value can realize.
        let constants = cq_constants(&cq);
        let mut marker = u32::MAX;
        while constants.contains(&marker) {
            marker -= 1;
        }
        let mut values: Vec<u32> = constants.into_iter().collect();
        values.push(marker);
        for value in values {
            if !safe_cq(&substitute(&cq, sep, value)) {
                continue 'sep;
            }
        }
        return true;
    }
    false
}

/// Is this UCQ safe — evaluable by the lifted rules on *every* TID
/// instance of its vocabulary? Conservative: `true` guarantees
/// [`lifted_probability`] succeeds; `false` sends the query to an
/// intensional route.
pub fn is_safe_ucq(ucq: &Ucq) -> bool {
    safe_union(ucq.disjuncts())
}

/// Lifted evaluation in any [`ProbNum`] type: exact rationals, or
/// `f64` for served answers. Returns `None` iff the recursion gets
/// stuck, which [`is_safe_ucq`] rules out in advance.
pub fn lifted_probability<N: ProbNum>(ucq: &Ucq, tid: &Tid) -> Option<N> {
    eval_union::<N>(ucq.disjuncts(), tid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_numeric::BigRational;
    use intext_tid::TupleDesc;

    fn ratio(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    /// Brute-force world enumeration, independent of the lifted rules.
    fn brute(ucq: &Ucq, tid: &Tid) -> BigRational {
        let db = tid.database();
        let n = db.len();
        assert!(n <= 20, "brute oracle is for small fixtures");
        let mut total = BigRational::zero();
        for world in 0u64..(1u64 << n) {
            let mut sub = Database::new(db.k(), db.domain_size());
            for i in 0..n {
                if world >> i & 1 == 1 {
                    sub.insert(db.describe(TupleId(i as u32))).unwrap();
                }
            }
            if ucq.eval(&sub) {
                total = &total + &tid.world_probability(world);
            }
        }
        total
    }

    fn fixture() -> Tid {
        let mut db = Database::new(1, 3);
        let mut descs = Vec::new();
        for a in 0..3 {
            descs.push(TupleDesc::R(a));
            descs.push(TupleDesc::T(a));
        }
        for (a, b) in [(0, 0), (0, 1), (1, 2), (2, 2)] {
            descs.push(TupleDesc::S(1, a, b));
        }
        let mut probs = Vec::new();
        for (i, d) in descs.into_iter().enumerate() {
            db.insert(d).unwrap();
            probs.push(ratio(i as i64 % 5 + 1, 7));
        }
        Tid::new(db, probs).unwrap()
    }

    fn cq(atoms: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery::new(atoms)
    }

    fn var(v: u8) -> Term {
        Term::Var(v)
    }

    #[test]
    fn hierarchical_queries_are_safe_and_match_brute_force() {
        let tid = fixture();
        let queries = vec![
            // ∃x R(x)
            Ucq::new(vec![cq(vec![Atom::unary(Relation::R, var(0))])]),
            // ∃x∃y R(x) ∧ S1(x,y)
            Ucq::new(vec![cq(vec![
                Atom::unary(Relation::R, var(0)),
                Atom::binary(Relation::S(1), var(0), var(1)),
            ])]),
            // ∃x∃y S1(x,y) ∧ T(y) with a constant: S1(0,y) ∧ T(y)
            Ucq::new(vec![cq(vec![
                Atom::binary(Relation::S(1), Term::Const(0), var(0)),
                Atom::unary(Relation::T, var(0)),
            ])]),
            // R(x) ∨ T(y): independent union
            Ucq::new(vec![
                cq(vec![Atom::unary(Relation::R, var(0))]),
                cq(vec![Atom::unary(Relation::T, var(0))]),
            ]),
            // R(0) ∨ R(0),T(x): entangled through the shared ground
            // atom, and the inclusion–exclusion conjunction dedupes
            // back to a self-join-free CQ.
            Ucq::new(vec![
                cq(vec![Atom::unary(Relation::R, Term::Const(0))]),
                cq(vec![
                    Atom::unary(Relation::R, Term::Const(0)),
                    Atom::unary(Relation::T, var(0)),
                ]),
            ]),
            // Ground atoms only
            Ucq::new(vec![cq(vec![
                Atom::unary(Relation::R, Term::Const(0)),
                Atom::unary(Relation::T, Term::Const(2)),
            ])]),
        ];
        for q in queries {
            assert!(is_safe_ucq(&q), "expected safe: {q:?}");
            let exact: BigRational = lifted_probability(&q, &tid).expect("safe queries evaluate");
            assert_eq!(exact, brute(&q, &tid), "lifted vs brute on {q:?}");
            let f: f64 = lifted_probability(&q, &tid).unwrap();
            assert!((f - exact.to_f64()).abs() < 1e-12);
        }
    }

    #[test]
    fn the_h0_union_is_unsafe() {
        // R(x),S1(x,y) ∨ S1(x,y),T(y) — the non-hierarchical #P-hard
        // query; lifted inference must refuse it.
        let q = Ucq::new(vec![
            cq(vec![
                Atom::unary(Relation::R, var(0)),
                Atom::binary(Relation::S(1), var(0), var(1)),
            ]),
            cq(vec![
                Atom::binary(Relation::S(1), var(0), var(1)),
                Atom::unary(Relation::T, var(1)),
            ]),
        ]);
        assert!(!is_safe_ucq(&q));
        assert_eq!(lifted_probability::<BigRational>(&q, &fixture()), None);
    }

    #[test]
    fn the_nonhierarchical_single_cq_is_unsafe() {
        // R(x),S1(x,y),T(y): connected, no separator.
        let q = Ucq::new(vec![cq(vec![
            Atom::unary(Relation::R, var(0)),
            Atom::binary(Relation::S(1), var(0), var(1)),
            Atom::unary(Relation::T, var(1)),
        ])]);
        assert!(!is_safe_ucq(&q));
    }

    #[test]
    fn constant_collisions_are_anticipated_symbolically() {
        // S1(x,0),S1(x,y): grounding x can collide y's column with the
        // constant 0; the symbolic test must explore that pattern and
        // the evaluator must still agree with brute force.
        let q = Ucq::new(vec![cq(vec![
            Atom::binary(Relation::S(1), var(0), Term::Const(0)),
            Atom::binary(Relation::S(1), var(0), var(1)),
        ])]);
        let tid = fixture();
        if is_safe_ucq(&q) {
            let exact: BigRational = lifted_probability(&q, &tid).unwrap();
            assert_eq!(exact, brute(&q, &tid));
        } else {
            // Conservative rejection is acceptable; evaluation must not
            // disagree with brute force if it does complete.
            if let Some(exact) = lifted_probability::<BigRational>(&q, &tid) {
                assert_eq!(exact, brute(&q, &tid));
            }
        }
    }
}
