//! The end-to-end d-D compilation pipeline (Theorem 5.2 /
//! Proposition 4.4): `e(φ) = 0  ⟹  Q_φ ∈ d-D(PTIME)`.
//!
//! Fragmentation produces a `¬`-`∨`-template over degenerate
//! pair-functions, and each leaf is compiled to an OBDD by
//! `intext-lineage` (Proposition 3.7). Plugging the OBDDs into the
//! template's holes gives the d-D of Proposition 4.4. Determinism of the
//! template's `∨` gates holds by construction: the lineage map
//! `α ↦ Lin(Q_α, D)` is a homomorphism from Boolean functions over `V`
//! to Boolean functions over tuples, so disjointness at the `φ` level
//! transfers to the lineage level.
//!
//! A deterministic `∨` is a sum and `¬` is `1 − x`, so the d-D's
//! probability is a function of its leaves' probabilities: the compiled
//! artifact ([`CompiledLineage`]) keeps the template and the leaf OBDDs
//! apart and never builds the plugged circuit to evaluate it.

use std::fmt;

use intext_boolfn::BoolFn;
use intext_circuits::{Circuit, EvalScratch, GateId};
use intext_lineage::{compile_degenerate_obdd, DegenerateLineage, LineageError};
use intext_numeric::{BigRational, BlockWalk, ProbNum, ResidueCrt, Residues};
use intext_tid::{Database, Tid, TupleId};

use crate::template::{Fold, Fragmentation, Template};
use crate::transform::TransformError;

/// Errors from the pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The technique applies exactly to `e(φ) = 0` (Theorem 5.2 /
    /// Corollary 5.4); other functions are `#P`-hard or open (Figure 1).
    NonZeroEuler(i64),
    /// A leaf failed to compile (vocabulary mismatch).
    Lineage(LineageError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NonZeroEuler(e) => {
                write!(
                    f,
                    "d-D pipeline requires e(φ) = 0, got {e} (query is not safe)"
                )
            }
            CompileError::Lineage(e) => write!(f, "leaf compilation failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LineageError> for CompileError {
    fn from(e: LineageError) -> Self {
        CompileError::Lineage(e)
    }
}

impl From<TransformError> for CompileError {
    fn from(e: TransformError) -> Self {
        match e {
            TransformError::NonZeroEuler(v) => CompileError::NonZeroEuler(v),
            other => unreachable!("steps_to_bottom only fails on Euler: {other:?}"),
        }
    }
}

/// A compiled lineage: the `¬`-`∨`-template of `Lin(Q_φ, D)` over one
/// leaf OBDD per hole — Theorem 5.2's d-D with its Proposition 3.7
/// OBDDs not yet plugged in. A Proposition 3.7 OBDD or a grounded
/// lineage is the one-leaf case, `Hole(0)` ([`From<DegenerateLineage>`]).
///
/// Its probability pass ([`walk`](Self::walk)) is written once, generic
/// over the number type: one linear pass per leaf (the leaves are
/// compacted to their reachable nodes) combined through the template,
/// where a `∨` adds its inputs, left first, and a `¬` computes `1 − x`.
/// Those are the operations, in that order, the plugged circuit
/// ([`to_circuit`](Self::to_circuit)) performs, so both walks give the
/// same `f64` bits.
#[derive(Debug)]
pub struct CompiledLineage {
    template: Template,
    /// `leaves[i]` fills `Hole(i)`.
    leaves: Vec<DegenerateLineage>,
    /// The variables the leaf walks read, ascending.
    support: Vec<u32>,
    /// Leaf OBDD nodes, summed over the leaves.
    size: usize,
}

impl From<DegenerateLineage> for CompiledLineage {
    fn from(leaf: DegenerateLineage) -> Self {
        CompiledLineage::new(Template::Hole(0), vec![leaf])
    }
}

impl CompiledLineage {
    /// Assembles an artifact from a template and one leaf lineage per
    /// hole (`leaves[i]` fills `Hole(i)`).
    pub fn new(template: Template, leaves: Vec<DegenerateLineage>) -> Self {
        let mut support: Vec<u32> = leaves
            .iter()
            .flat_map(|leaf| leaf.manager.support_vars(leaf.root))
            .collect();
        support.sort_unstable();
        support.dedup();
        let size = leaves.iter().map(DegenerateLineage::size).sum();
        CompiledLineage {
            template,
            leaves,
            support,
            size,
        }
    }

    /// The `¬`-`∨`-template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The leaf lineages; `leaves()[i]` fills `Hole(i)`.
    pub fn leaves(&self) -> &[DegenerateLineage] {
        &self.leaves
    }

    /// Size of the compiled representation: leaf OBDD nodes, summed over
    /// the leaves (the unit the engine's cache budget counts).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The variables ([`TupleId`] raw values) the walks read, ascending.
    /// Batch evaluators fill their probability matrix for these entries
    /// only.
    pub fn support_vars(&self) -> &[u32] {
        &self.support
    }

    /// The one probability pass, in any [`ProbNum`] type: prepares every
    /// support variable's `p = prob(v)` and `1 − p` once in `scratch`,
    /// walks each leaf OBDD over them
    /// ([`ObddManager::probability`](intext_circuits::ObddManager::probability)),
    /// and folds the leaf values through the template, a `∨` adding its
    /// inputs left first and a `¬` computing `1 − x`. Those are the
    /// operations, in that order, of the plugged circuit's pass
    /// ([`to_circuit`](Self::to_circuit)), so both give the same `f64`
    /// bits.
    ///
    /// Run on `[f64; LANES]` blocks (`prob` returning one variable's
    /// probability in every scenario lane) this is the lane kernel:
    /// lane `l` is bit-identical to the `f64` pass under lane `l`'s
    /// probabilities, and a reused `scratch` makes it allocation-free
    /// once it has grown to the largest leaf (`DESIGN.md` §6).
    pub fn walk<N: ProbNum>(&self, prob: impl Fn(u32) -> N, scratch: &mut EvalScratch<N>) -> N {
        scratch.prepare(self.support.iter().copied(), prob);
        self.template.fold(&mut |step: Fold<N>| match step {
            Fold::Hole(i) => {
                let leaf = &self.leaves[i];
                leaf.manager.probability(leaf.root, scratch)
            }
            Fold::Or(a, b) => a.add(&b),
            Fold::Not(a) => a.complement(),
        })
    }

    /// Probability under the TID's tuple probabilities, in any
    /// [`ProbNum`] type: [`walk`](Self::walk) with each probability
    /// converted by [`ProbNum::from_rational`].
    pub fn probability<N: ProbNum>(&self, tid: &Tid) -> N {
        self.walk(
            |v| N::from_rational(tid.prob(TupleId(v))),
            &mut EvalScratch::new(),
        )
    }

    /// The exact probability under the TID's tuple probabilities, equal
    /// to [`probability::<BigRational>`](Self::probability) but computed
    /// in residue arithmetic (`intext_numeric`'s [`ResidueCrt`]):
    ///
    /// 1. `D = ∏ den(p_v)` over [`support_vars`](Self::support_vars),
    ///    and enough word-size primes dividing no `den(p_v)` that their
    ///    product exceeds `D`;
    /// 2. one [`walk`](Self::walk) per block of those primes, over
    ///    [`Residues`] prepared once per block;
    /// 3. the residues times `D`, combined by CRT into `N = P · D`;
    /// 4. `N / D`, reduced once.
    ///
    /// When `D` outgrows the prime table this is the `BigRational` walk.
    pub fn exact_probability(&self, tid: &Tid) -> BigRational {
        let probs: Vec<&BigRational> = self.support.iter().map(|&v| tid.prob(TupleId(v))).collect();
        match ResidueCrt::new(probs.iter().map(|p| p.denom())) {
            Some(crt) => crt.solve(&mut ResidueWalk {
                artifact: self,
                probs: &probs,
            }),
            None => self.probability(tid),
        }
    }

    /// Evaluates the lineage on a concrete world (tuple-presence mask).
    pub fn eval_world(&self, world: u64) -> bool {
        self.template.fold(&mut |step| match step {
            Fold::Hole(i) => {
                let leaf = &self.leaves[i];
                leaf.manager.eval(leaf.root, &|v| (world >> v) & 1 == 1)
            }
            Fold::Or(a, b) => a || b,
            Fold::Not(a) => !a,
        })
    }

    /// The plugged d-D (Proposition 4.4): every leaf OBDD embedded as
    /// circuit gates and the template replayed on top, hash-consed into
    /// one circuit. Built on demand — for [`verify::check_dd`], circuit
    /// statistics and examples; no walk needs it.
    ///
    /// [`verify::check_dd`]: intext_circuits::verify::check_dd
    pub fn to_circuit(&self) -> (Circuit, GateId) {
        let mut c = Circuit::new();
        let root = self.template.fold(&mut |step| match step {
            Fold::Hole(i) => {
                let leaf = &self.leaves[i];
                leaf.manager.copy_into_circuit(leaf.root, &mut c)
            }
            Fold::Or(a, b) => c.or(vec![a, b]),
            Fold::Not(a) => c.not(a),
        });
        (c, root)
    }

    /// Whether [`patched`](Self::patched) can succeed: every leaf still
    /// carries its unroll trace.
    pub fn is_patchable(&self) -> bool {
        self.leaves.iter().all(DegenerateLineage::is_patchable)
    }

    /// Incrementally recompiles this lineage for `new_db`, given it was
    /// compiled against `old_db` (differing by at most one tuple) — the
    /// Theorem 5.2 patch path.
    ///
    /// Each leaf is patched through [`DegenerateLineage::patched`]
    /// (leaves whose split puts the changed tuple outside their
    /// `Π_L · Π_R` stream take the cheap remap-only path), and the
    /// template, which depends only on `φ`, is reused. Patched leaves are
    /// compacted to the same canonical arenas as freshly compiled ones,
    /// so the result answers every probability query **bit-identically**
    /// to a fresh `compile_dd(phi, new_db)` and serializes to the same
    /// bytes.
    ///
    /// Returns `None` when any leaf refuses (deserialized leaf, more
    /// than one slot changed, shape mismatch) — callers fall back to
    /// full recompilation.
    pub fn patched(&self, old_db: &Database, new_db: &Database) -> Option<CompiledLineage> {
        let leaves = self
            .leaves
            .iter()
            .map(|leaf| leaf.patched(old_db, new_db))
            .collect::<Option<Vec<_>>>()?;
        Some(CompiledLineage::new(self.template.clone(), leaves))
    }
}

/// [`CompiledLineage::walk`] on one residue block: `probs[i]` is the
/// probability of support variable `i`.
struct ResidueWalk<'a> {
    artifact: &'a CompiledLineage,
    probs: &'a [&'a BigRational],
}

impl BlockWalk for ResidueWalk<'_> {
    fn walk<const B: usize>(&mut self) -> Residues<B> {
        let residues = Residues::<B>::from_rationals(self.probs);
        let support = &self.artifact.support;
        self.artifact.walk(
            |v| residues[support.binary_search(&v).expect("walks read the support")],
            &mut EvalScratch::new(),
        )
    }
}

/// Theorem 5.2: compiles `Lin(Q_φ, D)` into a d-D in polynomial time,
/// for any `φ` with `e(φ) = 0` (in particular every safe `H⁺`-query,
/// Corollary 5.3): the fragmentation's template over one compiled leaf
/// OBDD per degenerate leaf function. The leaves keep their unroll
/// traces, which is what lets [`CompiledLineage::patched`] follow a
/// tuple update instead of recompiling.
pub fn compile_dd(phi: &BoolFn, db: &Database) -> Result<CompiledLineage, CompileError> {
    let frag = Fragmentation::of(phi)?;
    let leaves = frag
        .leaves
        .iter()
        .map(|leaf| compile_degenerate_obdd(leaf, db))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CompiledLineage::new(frag.template, leaves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::{max_euler_fn, phi9, phi_no_pm, small};
    use intext_circuits::verify;
    use intext_extensional::pqe_extensional;
    use intext_numeric::BigRational;
    use intext_query::{pqe_brute_force, HQuery};
    use intext_tid::{complete_database, random_database, random_tid, DbGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phi9_compiles_to_a_valid_dd() {
        let db = complete_database(3, 1); // small enough for exhaustive d-D check
        let compiled = compile_dd(&phi9(), &db).unwrap();
        let (circuit, root) = compiled.to_circuit();
        verify::check_dd(&circuit, root).expect("valid d-D");
        // Lineage semantics on every world.
        let q = HQuery::new(phi9());
        for world in 0..(1u64 << db.len()) {
            assert_eq!(compiled.eval_world(world), q.lineage_eval(&db, world));
        }
    }

    #[test]
    fn phi9_probability_matches_extensional_and_brute_force() {
        let mut rng = StdRng::seed_from_u64(77);
        let db = random_database(
            &DbGenConfig {
                k: 3,
                domain_size: 2,
                density: 0.7,
                prob_denominator: 7,
            },
            &mut rng,
        );
        let tid = random_tid(db, 7, &mut rng);
        let compiled = compile_dd(&phi9(), tid.database()).unwrap();
        let q = HQuery::new(phi9());
        let intensional = compiled.probability::<BigRational>(&tid);
        let extensional = pqe_extensional(&q, &tid).unwrap();
        let brute = pqe_brute_force(&q, &tid).unwrap();
        assert_eq!(intensional, extensional, "intensional vs extensional");
        assert_eq!(intensional, brute, "intensional vs brute force");
    }

    #[test]
    fn residue_walk_equals_the_rational_walk() {
        // Denominators up to 97 on φ9 at domains 1–3: one to four
        // primes in one block. tests/engine_exact.rs covers several
        // blocks, a skipped prime and the fallback.
        for (domain, den) in [(1, 2), (2, 7), (3, 10), (3, 97)] {
            let mut rng = StdRng::seed_from_u64(u64::from(domain) * den);
            let db = random_database(
                &DbGenConfig {
                    k: 3,
                    domain_size: domain,
                    density: 0.8,
                    prob_denominator: den,
                },
                &mut rng,
            );
            let tid = random_tid(db, den, &mut rng);
            let compiled = compile_dd(&phi9(), tid.database()).unwrap();
            assert_eq!(
                compiled.exact_probability(&tid),
                compiled.probability::<BigRational>(&tid),
                "domain {domain}, denominators up to {den}"
            );
        }
    }

    #[test]
    fn non_monotone_zero_euler_queries_compile() {
        // The paper's point: the technique covers H-queries beyond UCQs.
        let phi = phi_no_pm(); // non-monotone, e = 0, k = 4
        let mut rng = StdRng::seed_from_u64(13);
        let db = random_database(
            &DbGenConfig {
                k: 4,
                domain_size: 2,
                density: 0.4,
                prob_denominator: 5,
            },
            &mut rng,
        );
        let tid = random_tid(db, 5, &mut rng);
        let compiled = compile_dd(&phi, tid.database()).unwrap();
        let q = HQuery::new(phi);
        let brute = pqe_brute_force(&q, &tid).unwrap();
        assert_eq!(compiled.probability::<BigRational>(&tid), brute);
    }

    #[test]
    fn hard_queries_rejected() {
        let db = complete_database(3, 2);
        let err = compile_dd(&max_euler_fn(4), &db).unwrap_err();
        assert_eq!(err, CompileError::NonZeroEuler(8));
    }

    #[test]
    fn all_zero_euler_functions_k2_compile_and_agree() {
        // Exhaustive Theorem 5.2 check at k = 2 against brute force.
        let mut rng = StdRng::seed_from_u64(5);
        let db = random_database(
            &DbGenConfig {
                k: 2,
                domain_size: 2,
                density: 0.75,
                prob_denominator: 4,
            },
            &mut rng,
        );
        let tid = random_tid(db, 4, &mut rng);
        let mut compiled_count = 0;
        for t in 0..256u64 {
            if small::euler(3, t) != 0 {
                continue;
            }
            let phi = BoolFn::from_table_u64(3, t);
            let compiled = compile_dd(&phi, tid.database()).unwrap();
            let q = HQuery::new(phi);
            let brute = pqe_brute_force(&q, &tid).unwrap();
            assert_eq!(compiled.probability::<BigRational>(&tid), brute, "t={t:#x}");
            compiled_count += 1;
        }
        assert_eq!(compiled_count, 70, "C(8,4) zero-Euler functions at k=2");
    }

    #[test]
    fn circuit_grows_polynomially_with_domain() {
        let sizes: Vec<usize> = [1u32, 2, 4]
            .iter()
            .map(|&n| {
                let db = complete_database(3, n);
                compile_dd(&phi9(), &db)
                    .unwrap()
                    .to_circuit()
                    .0
                    .stats()
                    .gates
            })
            .collect();
        // Tuple count grows 4x per doubling (S relations dominate); the
        // circuit should track that, not blow up exponentially.
        assert!(sizes[1] < sizes[0] * 8, "{sizes:?}");
        assert!(sizes[2] < sizes[1] * 8, "{sizes:?}");
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    }

    #[test]
    fn patched_dd_is_bit_identical_to_fresh_compile() {
        // Insert and remove each tuple of a φ9 instance in turn; the
        // patched leaves under the reused template must match a fresh
        // compile on every world and every probability walk, to the bit.
        let full = complete_database(3, 1);
        for (id, missing) in full.iter() {
            let mut without = Database::new(3, 1);
            for (_, desc) in full.iter() {
                if desc != missing {
                    without.insert(desc).unwrap();
                }
            }
            // Insert direction (append at the end = fresh-build order
            // only when the missing tuple was last; otherwise the orders
            // differ and patch correctly refuses nothing — it tracks the
            // *old* database it was compiled against).
            let old = without.clone();
            let mut new = without.clone();
            new.insert(missing).unwrap();
            let compiled = compile_dd(&phi9(), &old).unwrap();
            assert!(compiled.is_patchable());
            let patched = compiled.patched(&old, &new).expect("one tuple inserted");
            let fresh = compile_dd(&phi9(), &new).unwrap();
            for world in 0..(1u64 << new.len()) {
                assert_eq!(patched.eval_world(world), fresh.eval_world(world));
            }
            let p = |v: u32| 0.1 + 0.08 * f64::from(v);
            let (patched_c, patched_root) = patched.to_circuit();
            let (fresh_c, fresh_root) = fresh.to_circuit();
            assert_eq!(
                patched_c
                    .probability(patched_root, p, &mut EvalScratch::new())
                    .to_bits(),
                fresh_c
                    .probability(fresh_root, p, &mut EvalScratch::new())
                    .to_bits(),
                "bit-identical d-D walks (insert)"
            );
            verify::check_dd(&patched_c, patched_root).expect("still a valid d-D");

            // Remove direction, starting from the full instance.
            let mut removed = full.clone();
            removed.remove(id).unwrap();
            let compiled = compile_dd(&phi9(), &full).unwrap();
            let patched = compiled
                .patched(&full, &removed)
                .expect("one tuple removed");
            let fresh = compile_dd(&phi9(), &removed).unwrap();
            let (patched_c, patched_root) = patched.to_circuit();
            let (fresh_c, fresh_root) = fresh.to_circuit();
            let pexact = patched_c.probability(patched_root, p, &mut EvalScratch::new());
            assert_eq!(
                pexact.to_bits(),
                fresh_c
                    .probability(fresh_root, p, &mut EvalScratch::new())
                    .to_bits(),
                "bit-identical d-D walks (remove)"
            );
            assert!(patched.is_patchable(), "patches stay patchable");
        }
    }

    #[test]
    fn compiled_lineage_reuse_probability_updates() {
        // The knowledge-compilation motivation: update tuple
        // probabilities and re-evaluate without recompiling.
        let mut rng = StdRng::seed_from_u64(99);
        let db = random_database(
            &DbGenConfig {
                k: 3,
                domain_size: 2,
                density: 0.8,
                prob_denominator: 9,
            },
            &mut rng,
        );
        let mut tid = random_tid(db, 9, &mut rng);
        let compiled = compile_dd(&phi9(), tid.database()).unwrap();
        let before = compiled.probability::<BigRational>(&tid);
        tid.set_prob(TupleId(0), BigRational::from_ratio(1, 97))
            .unwrap();
        let after = compiled.probability::<BigRational>(&tid);
        let q = HQuery::new(phi9());
        assert_eq!(after, pqe_brute_force(&q, &tid).unwrap());
        assert_ne!(before, after, "the update must be visible");
    }
}
