//! Unrolling the product automaton into a reduced OBDD.

use std::fmt;

use intext_boolfn::BoolFn;
use intext_circuits::{Circuit, EvalScratch, GateId, NodeRef, ObddManager};
use intext_numeric::ProbNum;
use intext_tid::{Database, Tid, TupleId};

use crate::automaton::{self, witnesses, Reach, StreamStep};

/// Errors from the degenerate-lineage compiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineageError {
    /// The function depends on all of its variables (Proposition 3.7
    /// needs a variable to split the vocabulary on).
    NotDegenerate,
    /// The database's `k` does not match the function's `k`.
    VocabularyMismatch {
        /// `k` expected by the function.
        expected: u8,
        /// `k` of the database.
        got: u8,
    },
}

impl fmt::Display for LineageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineageError::NotDegenerate => {
                write!(
                    f,
                    "function depends on all variables; Prop 3.7 needs a split variable"
                )
            }
            LineageError::VocabularyMismatch { expected, got } => {
                write!(f, "function is over k={expected} but database has k={got}")
            }
        }
    }
}

impl std::error::Error for LineageError {}

/// Suffix checkpoints of the backward unrolling, recorded so a later
/// single-slot presence change can resume compilation mid-stream instead
/// of replaying the whole product automaton (incremental maintenance,
/// DESIGN.md §9).
///
/// Entry `(j, v)` means: `v[state]` is the OBDD of the residual stream
/// `steps[j..]` from automaton state `state`, over the variables at
/// levels `≥ #present reads in steps[0..j]`. Only the states of the
/// [`Reach`] set before step `j` have entries; every other entry is
/// `FALSE` and never read, so it keeps no node alive. The sets depend on
/// the stream's shape alone, which a single-tuple update keeps, so a
/// patch's re-unrolled prefix reads exactly the entries the transplanted
/// checkpoint holds. Checkpoints are kept at every **group** reset
/// (`2·|dom|` of them, so the gap to the next one is one group —
/// `O(k·|dom|)` reads) plus the terminal vector at `steps.len()`, sorted
/// ascending by `j`. Denser checkpoints (every pair reset) would shorten
/// the re-unrolled prefix by less than a group but multiply the
/// transplant volume by `|dom|` — measured, that trade loses badly
/// (E23).
#[derive(Clone, Debug)]
struct UnrollTrace {
    checkpoints: Vec<(u32, Vec<NodeRef>)>,
}

/// A compiled lineage: a reduced OBDD over the tuple variables of the
/// database, in the grouped order `Π_L · Π_R`.
#[derive(Debug)]
pub struct DegenerateLineage {
    /// The OBDD manager holding the lineage (order = `Π_L · Π_R`,
    /// restricted to tuples present in the database).
    pub manager: ObddManager,
    /// Root of the lineage function.
    pub root: NodeRef,
    /// The split variable `l` that was used.
    pub split: u8,
    /// Unroll checkpoints enabling [`patched`](Self::patched); `None`
    /// for lineages rebuilt from serialized bytes (the trace is not part
    /// of the on-disk format) — those fall back to recompilation.
    trace: Option<UnrollTrace>,
}

impl DegenerateLineage {
    /// Assembles a lineage from its parts without an unroll trace — the
    /// deserialization path. The result answers every query identically
    /// to a freshly compiled lineage but [`patched`](Self::patched)
    /// returns `None` (callers recompile on shape changes instead).
    pub fn new(manager: ObddManager, root: NodeRef, split: u8) -> Self {
        DegenerateLineage {
            manager,
            root,
            split,
            trace: None,
        }
    }

    /// Whether [`patched`](Self::patched) can succeed (an unroll trace
    /// was recorded at compile time).
    pub fn is_patchable(&self) -> bool {
        self.trace.is_some()
    }

    /// OBDD node count: the root's walk prefix, which on a compacted
    /// lineage is exactly its reachable nodes.
    pub fn size(&self) -> usize {
        self.manager.prefix_len(self.root)
    }

    /// Probability of the query under the TID's probabilities, in any
    /// [`ProbNum`] type: one OBDD pass, with each variable's `1 − p`
    /// computed once.
    pub fn probability<N: ProbNum>(&self, tid: &Tid) -> N {
        let mut scratch = EvalScratch::new();
        scratch.prepare(self.manager.order().iter().copied(), |v| {
            N::from_rational(tid.prob(TupleId(v)))
        });
        self.manager.probability(self.root, &mut scratch)
    }

    /// Embeds the OBDD as a d-D circuit (for `verify::check_dd`).
    pub fn to_circuit(&self) -> (Circuit, GateId) {
        self.manager.to_circuit(self.root)
    }

    /// Incrementally re-compiles this lineage for `new_db`, given that it
    /// was compiled against `old_db` — the Proposition 3.7 patch path.
    ///
    /// The two databases must differ by at most one slot of the
    /// `Π_L · Π_R` stream (one tuple inserted or removed; same `k` and
    /// domain). Everything *after* the changed slot is transplanted from
    /// the recorded unroll checkpoints via
    /// [`ObddManager::copy_remapped`] — a single slot change shifts the
    /// suffix's variable levels uniformly by `−1`, `0`, or `+1` — and
    /// only the stream *prefix* up to the nearest checkpoint past the
    /// change is re-unrolled. Tuples outside the stream (the skipped
    /// unary relation at `l = 0` / `l = k`) and pure tuple-id renumbering
    /// after a removal take the remap-only fast path.
    ///
    /// Because reduced OBDDs are canonical per order and every
    /// probability walk depends only on the reduced DAG, the returned
    /// lineage answers every query **bit-identically** to a fresh
    /// `compile_degenerate_obdd(psi, new_db)`.
    ///
    /// Returns `None` when no trace was recorded (deserialized
    /// artifacts), when the shapes are incompatible, or when the
    /// databases differ in more than one stream slot — callers fall back
    /// to full recompilation.
    pub fn patched(&self, old_db: &Database, new_db: &Database) -> Option<DegenerateLineage> {
        let trace = self.trace.as_ref()?;
        if old_db.k() != new_db.k() || old_db.domain_size() != new_db.domain_size() {
            return None;
        }
        let k = old_db.k();
        let l = self.split;
        let old_steps = automaton::slot_stream(old_db, l);
        let new_steps = automaton::slot_stream(new_db, l);
        debug_assert_eq!(old_steps.len(), new_steps.len(), "same shape, same stream");
        // Defensive: `old_db` must really be the database this lineage
        // was compiled against (its present reads are the OBDD order).
        let old_order: Vec<u32> = old_steps
            .iter()
            .filter_map(|s| match s {
                StreamStep::Read { tuple: Some(t), .. } => Some(t.0),
                _ => None,
            })
            .collect();
        if old_order != self.manager.order() {
            return None;
        }
        // Locate the (at most one) slot whose presence flipped.
        let mut flipped = None;
        for (j, (o, n)) in old_steps.iter().zip(new_steps.iter()).enumerate() {
            let was = matches!(o, StreamStep::Read { tuple: Some(_), .. });
            let is = matches!(n, StreamStep::Read { tuple: Some(_), .. });
            if was != is {
                if flipped.is_some() {
                    return None; // more than one structural change
                }
                flipped = Some(j);
            }
        }
        // Resume point: the first checkpoint at or after the slot past
        // the change (0 when nothing flipped — remap-only renumbering).
        let resume_from = flipped.map_or(0, |p| p + 1);
        let ck_from = trace
            .checkpoints
            .partition_point(|(j, _)| (*j as usize) < resume_from);
        let c = trace.checkpoints.get(ck_from)?.0 as usize;

        let new_order: Vec<u32> = new_steps
            .iter()
            .filter_map(|s| match s {
                StreamStep::Read { tuple: Some(t), .. } => Some(t.0),
                _ => None,
            })
            .collect();
        let mut manager = ObddManager::new(new_order);
        // One slot flip shifts the rank of every later present read by
        // the same amount, so suffix levels translate uniformly.
        let delta = manager.order().len() as i64 - self.manager.order().len() as i64;
        debug_assert!(delta.abs() <= 1);
        let level_map = |lvl: u32| u32::try_from(i64::from(lvl) + delta).expect("level stays ≥ 0");

        // Transplant all suffix checkpoints in one shared-closure copy.
        let suffix = &trace.checkpoints[ck_from..];
        let states = suffix[0].1.len();
        let flat: Vec<NodeRef> = suffix.iter().flat_map(|(_, v)| v.iter().copied()).collect();
        let mapped = self.manager.copy_remapped(&mut manager, &level_map, &flat);
        let mut checkpoints: Vec<(u32, Vec<NodeRef>)> = suffix
            .iter()
            .zip(mapped.chunks(states))
            .map(|(&(j, _), chunk)| (j, chunk.to_vec()))
            .collect();

        // Re-unroll only the prefix before the resumed checkpoint.
        let start_level = new_steps[..c]
            .iter()
            .filter(|s| matches!(s, StreamStep::Read { tuple: Some(_), .. }))
            .count();
        // The reachable sets depend on the stream's shape alone, which
        // the change kept: the resumed checkpoint holds exactly the
        // entries the prefix's last step reads.
        let mut prefix = Vec::new();
        let cur = unroll_backward(
            &mut manager,
            &new_steps[..c],
            &Reach::along(&new_steps[..c], k),
            k,
            start_level,
            checkpoints[0].1.clone(),
            Some(&mut prefix),
        );
        let root = cur[encode_state(0, u32::from(k) + 1)];
        prefix.reverse();
        prefix.append(&mut checkpoints);
        Some(Self::compacted(
            &manager,
            root,
            l,
            Some(UnrollTrace {
                checkpoints: prefix,
            }),
        ))
    }

    /// The lineage of `root` in `manager`, with the arena rebuilt by
    /// [`ObddManager::compact`]: the root's reachable nodes first, in
    /// canonical postorder, so every walk is one linear pass over them;
    /// then the nodes only the trace's checkpoints reach, which later
    /// patches transplant. The trace is remapped onto the new arena.
    fn compacted(
        manager: &ObddManager,
        root: NodeRef,
        split: u8,
        trace: Option<UnrollTrace>,
    ) -> DegenerateLineage {
        let mut roots = vec![root];
        for (_, states) in trace.iter().flat_map(|t| &t.checkpoints) {
            roots.extend_from_slice(states);
        }
        let (manager, images) = manager.compact(&roots);
        let mut images = images.into_iter();
        let root = images.next().expect("the root is the first image");
        let trace = trace.map(|t| UnrollTrace {
            checkpoints: t
                .checkpoints
                .into_iter()
                .map(|(j, states)| (j, images.by_ref().take(states.len()).collect()))
                .collect(),
        });
        DegenerateLineage {
            manager,
            root,
            split,
            trace,
        }
    }
}

/// Automaton state → compact state index: the witness bits `0..nbits`,
/// then the `r`/`t`/`prev` latches (adjacent bits of the state).
fn encode_state(s: u32, nbits: u32) -> usize {
    const _: () = assert!(automaton::T_BIT == automaton::R_BIT << 1);
    const _: () = assert!(automaton::PREV_BIT == automaton::R_BIT << 2);
    (witnesses(s) | (s >> automaton::R_BIT.trailing_zeros()) << nbits) as usize
}

/// The backward pass shared by full compilation and incremental
/// patching: starting from `cur` = the per-state OBDD vector for the
/// residual stream `steps[len..]` (with `start_level` present reads in
/// `steps`), processes `steps` back-to-front and returns the vector for
/// the whole of `steps`. `steps` starts at stream position 0, and
/// `reach` holds its [`Reach::along`] sets: before each step only the
/// states of that step's set are computed, every other entry is `FALSE`,
/// and `cur` must hold every state of the last set. When `checkpoints`
/// is provided, the vector is snapshotted after every *group* reset
/// step (pushed in descending step order).
fn unroll_backward(
    manager: &mut ObddManager,
    steps: &[StreamStep],
    reach: &[Reach],
    k: u8,
    start_level: usize,
    mut cur: Vec<NodeRef>,
    mut checkpoints: Option<&mut Vec<(u32, Vec<NodeRef>)>>,
) -> Vec<NodeRef> {
    debug_assert_eq!(reach.len(), steps.len() + 1);
    let nbits = u32::from(k) + 1;
    let mut next = vec![NodeRef::FALSE; cur.len()];
    let mut level = start_level;
    for (j, &step) in steps.iter().enumerate().rev() {
        next.fill(NodeRef::FALSE);
        let states = reach[j];
        match step {
            StreamStep::Read { op, tuple: Some(_) } => {
                level -= 1;
                states.for_each(|s| {
                    let lo = cur[encode_state(automaton::read(s, op, false, k), nbits)];
                    let hi = cur[encode_state(automaton::read(s, op, true, k), nbits)];
                    next[encode_state(s, nbits)] = manager.mk(level as u32, lo, hi);
                });
            }
            StreamStep::Read { op, tuple: None } => states.for_each(|s| {
                next[encode_state(s, nbits)] =
                    cur[encode_state(automaton::read(s, op, false, k), nbits)];
            }),
            reset_step => states.for_each(|s| {
                next[encode_state(s, nbits)] =
                    cur[encode_state(automaton::reset(s, reset_step), nbits)];
            }),
        }
        std::mem::swap(&mut cur, &mut next);
        if let Some(cks) = checkpoints.as_deref_mut() {
            if matches!(
                step,
                StreamStep::ResetLeftGroup | StreamStep::ResetRightGroup
            ) {
                cks.push((j as u32, cur.clone()));
            }
        }
    }
    debug_assert_eq!(level, 0, "every variable level consumed");
    cur
}

/// A reusable compiler for a fixed database and split variable `l`:
/// compiles any function independent of `l` into the **shared** manager
/// (same order `Π_L · Π_R`), so results can be combined with OBDD
/// operations.
pub struct SplitCompiler {
    manager: ObddManager,
    steps: Vec<StreamStep>,
    /// [`Reach::along`] `steps`: the states each step can see.
    reach: Vec<Reach>,
    k: u8,
    l: u8,
}

impl SplitCompiler {
    /// Prepares the slot stream and variable order for split variable `l`.
    ///
    /// # Panics
    /// Panics if `l > db.k()`.
    pub fn new(db: &Database, l: u8) -> Self {
        assert!(l <= db.k(), "split variable {l} out of range");
        let steps = automaton::slot_stream(db, l);
        let order: Vec<u32> = steps
            .iter()
            .filter_map(|s| match s {
                StreamStep::Read { tuple: Some(t), .. } => Some(t.0),
                _ => None,
            })
            .collect();
        SplitCompiler {
            manager: ObddManager::new(order),
            reach: Reach::along(&steps, db.k()),
            steps,
            k: db.k(),
            l,
        }
    }

    /// The shared manager.
    pub fn manager(&self) -> &ObddManager {
        &self.manager
    }

    /// Consumes the compiler, yielding the manager.
    pub fn into_manager(self) -> ObddManager {
        self.manager
    }

    /// The split variable.
    pub fn split(&self) -> u8 {
        self.l
    }

    /// Unrolls the product automaton for `psi` (which must not depend on
    /// the split variable) into a reduced OBDD; `O(2^k · |D|)`, one `mk`
    /// per present stream slot and automaton state the slot can be read
    /// in (a set computed from the stream's shape alone).
    pub fn compile(&mut self, psi: &BoolFn) -> Result<NodeRef, LineageError> {
        Ok(self.compile_inner(psi, None)?[encode_state(0, u32::from(self.k) + 1)])
    }

    /// [`compile`](Self::compile), additionally recording the unroll
    /// checkpoints that make the result patchable under single-tuple
    /// updates.
    fn compile_with_trace(&mut self, psi: &BoolFn) -> Result<(NodeRef, UnrollTrace), LineageError> {
        let mut checkpoints = Vec::new();
        let cur = self.compile_inner(psi, Some(&mut checkpoints))?;
        checkpoints.reverse();
        Ok((
            cur[encode_state(0, u32::from(self.k) + 1)],
            UnrollTrace { checkpoints },
        ))
    }

    fn compile_inner(
        &mut self,
        psi: &BoolFn,
        mut checkpoints: Option<&mut Vec<(u32, Vec<NodeRef>)>>,
    ) -> Result<Vec<NodeRef>, LineageError> {
        if psi.k() != self.k {
            return Err(LineageError::VocabularyMismatch {
                expected: psi.k(),
                got: self.k,
            });
        }
        if psi.depends_on(self.l) {
            return Err(LineageError::NotDegenerate);
        }
        let k = self.k;
        let num_levels = self.manager.order().len();

        // Compact state indexing: witness bits 0..=k, then r/t/prev.
        // `cur[idx]` = OBDD of the residual stream as a function of the
        // remaining tuple variables, per automaton state — seeded with
        // the per-state terminal vector `psi(witnesses)` over the states
        // the stream can end in.
        let nbits = u32::from(k) + 1;
        let mut terminal = vec![NodeRef::FALSE; 1 << (nbits + 3)];
        self.reach[self.steps.len()].for_each(|s| {
            if psi.eval(witnesses(s)) {
                terminal[encode_state(s, nbits)] = NodeRef::TRUE;
            }
        });
        if let Some(cks) = checkpoints.as_deref_mut() {
            cks.push((self.steps.len() as u32, terminal.clone()));
        }
        Ok(unroll_backward(
            &mut self.manager,
            &self.steps,
            &self.reach,
            k,
            num_levels,
            terminal,
            checkpoints,
        ))
    }
}

/// Compiles the lineage `Lin(Q_ψ, D)` of a degenerate `H`-query into a
/// reduced OBDD in time `O(2^k · |D|)` — linear in the database
/// (Proposition 3.7).
///
/// The split variable is any `l ∉ DEP(ψ)`; the automaton state space has
/// `2^(k+4)` states (constant in data complexity), and the backward
/// unrolling touches each stream slot once per state it can be read in:
/// a set computed from `k`, `l` and the domain alone (at `k = 3`, 18–31
/// of the 128 states per present slot on average, 64 at most).
pub fn compile_degenerate_obdd(
    psi: &BoolFn,
    db: &Database,
) -> Result<DegenerateLineage, LineageError> {
    let k = psi.k();
    if db.k() != k {
        return Err(LineageError::VocabularyMismatch {
            expected: k,
            got: db.k(),
        });
    }
    let l = psi.independent_var().ok_or(LineageError::NotDegenerate)?;
    let mut compiler = SplitCompiler::new(db, l);
    let (root, trace) = compiler.compile_with_trace(psi)?;
    Ok(DegenerateLineage::compacted(
        compiler.manager(),
        root,
        l,
        Some(trace),
    ))
}

/// Ablation baseline for Proposition 3.7: build one OBDD per `h_{k,i}`
/// (`i ≠ l`) with the automaton, then combine them under `ψ` with the
/// textbook multi-way `apply` (product construction) instead of
/// unrolling the product automaton directly. Same output function; the
/// benchmarks compare the two routes.
pub fn compile_degenerate_obdd_apply(
    psi: &BoolFn,
    db: &Database,
) -> Result<DegenerateLineage, LineageError> {
    let k = psi.k();
    if db.k() != k {
        return Err(LineageError::VocabularyMismatch {
            expected: k,
            got: db.k(),
        });
    }
    let l = psi.independent_var().ok_or(LineageError::NotDegenerate)?;
    let mut compiler = SplitCompiler::new(db, l);
    // One OBDD per h-index the function can see.
    let mut indices = Vec::new();
    let mut roots = Vec::new();
    for i in 0..=k {
        if i == l {
            continue;
        }
        indices.push(i);
        let hi = BoolFn::var(k + 1, i);
        roots.push(
            compiler
                .compile(&hi)
                .expect("h_i ignores the split variable"),
        );
    }
    let mut manager = compiler.into_manager();
    let root = manager.combine_many(&roots, &|values: &[bool]| {
        let mut mask = 0u32;
        for (pos, &i) in indices.iter().enumerate() {
            if values[pos] {
                mask |= 1 << i;
            }
        }
        psi.eval(mask)
    });
    Ok(DegenerateLineage::compacted(&manager, root, l, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_numeric::BigRational;
    use intext_query::{pqe_brute_force, HQuery};
    use intext_tid::{complete_database, random_database, random_tid, DbGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exhaustively compare the OBDD against the query's lineage
    /// semantics on every world.
    fn assert_lineage_correct(psi: &BoolFn, db: &Database) {
        let lin = compile_degenerate_obdd(psi, db).expect("compiles");
        let q = HQuery::new(psi.clone());
        for world in 0..(1u64 << db.len()) {
            let via_obdd = lin.manager.eval(lin.root, &|v| (world >> v) & 1 == 1);
            let via_query = q.lineage_eval(db, world);
            assert_eq!(via_obdd, via_query, "world={world:#b}");
        }
    }

    #[test]
    fn single_h_queries_compile_correctly() {
        // psi = variable i alone: Q = h_{k,i}; degenerate for k >= 1.
        let db = complete_database(2, 1);
        for i in 0..=2u8 {
            let psi = BoolFn::var(3, i);
            assert_lineage_correct(&psi, &db);
        }
    }

    #[test]
    fn boolean_combinations_compile_correctly() {
        let db = complete_database(3, 1);
        // (h0 ∧ ¬h2) ∨ h3 — does not depend on variable 1.
        let h0 = BoolFn::var(4, 0);
        let h2 = BoolFn::var(4, 2);
        let h3 = BoolFn::var(4, 3);
        let psi = &(&h0 & &!&h2) | &h3;
        assert!(psi.is_degenerate());
        assert_lineage_correct(&psi, &db);
    }

    #[test]
    fn pair_functions_compile_correctly() {
        // The fragmentation leaves: SAT(ψ) = {ν, ν ∪ {l}}.
        let db = complete_database(2, 1);
        for l in 0..=2u8 {
            for nu in 0..8u32 {
                let nu = nu & !(1 << l);
                let psi = BoolFn::from_sat(3, [nu, nu | (1 << l)]);
                assert_eq!(psi.independent_var(), Some(l));
                assert_lineage_correct(&psi, &db);
            }
        }
    }

    #[test]
    fn constants_compile() {
        let db = complete_database(2, 2);
        let bot = compile_degenerate_obdd(&BoolFn::bottom(3), &db).unwrap();
        assert_eq!(bot.root, NodeRef::FALSE);
        let top = compile_degenerate_obdd(&BoolFn::top(3), &db).unwrap();
        assert_eq!(top.root, NodeRef::TRUE);
    }

    #[test]
    fn sparse_random_databases() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..10 {
            let db = random_database(
                &DbGenConfig {
                    k: 2,
                    domain_size: 2,
                    density: 0.5,
                    prob_denominator: 10,
                },
                &mut rng,
            );
            if db.len() >= 16 {
                continue;
            }
            let psi = &BoolFn::var(3, 0) ^ &BoolFn::var(3, 2); // skips var 1
            let _ = trial;
            assert_lineage_correct(&psi, &db);
        }
    }

    #[test]
    fn probability_matches_brute_force_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        let db = random_database(
            &DbGenConfig {
                k: 3,
                domain_size: 2,
                density: 0.7,
                prob_denominator: 10,
            },
            &mut rng,
        );
        let tid = random_tid(db, 10, &mut rng);
        // ¬h0 ∨ (h2 ∧ h3): skips variable 1.
        let psi = &!&BoolFn::var(4, 0) | &(&BoolFn::var(4, 2) & &BoolFn::var(4, 3));
        let lin = compile_degenerate_obdd(&psi, tid.database()).unwrap();
        let q = HQuery::new(psi);
        let expect: BigRational = pqe_brute_force(&q, &tid).unwrap();
        assert_eq!(lin.probability::<BigRational>(&tid), expect);
        assert!((lin.probability::<f64>(&tid) - expect.to_f64()).abs() < 1e-12);
    }

    #[test]
    fn nondegenerate_rejected() {
        let db = complete_database(3, 2);
        let err = compile_degenerate_obdd(&intext_boolfn::phi9(), &db).unwrap_err();
        assert_eq!(err, LineageError::NotDegenerate);
    }

    #[test]
    fn vocabulary_mismatch_rejected() {
        let db = complete_database(2, 2);
        let psi = BoolFn::var(4, 0); // k = 3 function
        assert_eq!(
            compile_degenerate_obdd(&psi, &db).unwrap_err(),
            LineageError::VocabularyMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn obdd_size_grows_linearly_with_domain() {
        // Proposition 3.7's point: size is O(|D|). Doubling the domain
        // should roughly quadruple the tuple count (S relations dominate)
        // and the OBDD must follow suit, not explode.
        let psi = &BoolFn::var(3, 0) & &!&BoolFn::var(3, 2);
        let sizes: Vec<usize> = [2u32, 4, 8]
            .iter()
            .map(|&n| {
                let db = complete_database(2, n);
                compile_degenerate_obdd(&psi, &db).unwrap().size()
            })
            .collect();
        // Linear in tuple count: size(n=8)/size(n=4) ≈ tuples(8)/tuples(4) ≈ 4.
        let ratio = sizes[2] as f64 / sizes[1] as f64;
        assert!(
            ratio < 6.0,
            "sizes {sizes:?} grew superlinearly (ratio {ratio})"
        );
        // And strictly growing.
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    }

    #[test]
    fn apply_route_matches_automaton_route() {
        // The ablation baseline computes the same function — and since
        // both land in managers with the same order, even the same
        // probabilities and sizes on every tested instance.
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..5 {
            let db = random_database(
                &DbGenConfig {
                    k: 3,
                    domain_size: 2,
                    density: 0.7,
                    prob_denominator: 9,
                },
                &mut rng,
            );
            let tid = random_tid(db, 9, &mut rng);
            let psi = &(&BoolFn::var(4, 0) ^ &BoolFn::var(4, 2)) | &BoolFn::var(4, 3);
            let a = compile_degenerate_obdd(&psi, tid.database()).unwrap();
            let b = compile_degenerate_obdd_apply(&psi, tid.database()).unwrap();
            assert_eq!(a.split, b.split, "trial {trial}");
            assert_eq!(
                a.probability::<BigRational>(&tid),
                b.probability::<BigRational>(&tid),
                "trial {trial}"
            );
            if tid.len() < 18 {
                for world in 0..(1u64 << tid.len()) {
                    assert_eq!(
                        a.manager.eval(a.root, &|v| (world >> v) & 1 == 1),
                        b.manager.eval(b.root, &|v| (world >> v) & 1 == 1),
                        "trial {trial}, world {world:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_compiler_shares_manager_across_functions() {
        let db = complete_database(2, 2);
        let mut compiler = SplitCompiler::new(&db, 1);
        let h0 = compiler.compile(&BoolFn::var(3, 0)).unwrap();
        let h2 = compiler.compile(&BoolFn::var(3, 2)).unwrap();
        assert_ne!(h0, h2);
        // Combining in the shared manager is now a plain apply.
        let mut manager = compiler.into_manager();
        let both = manager.and(h0, h2);
        let direct =
            compile_degenerate_obdd(&(&BoolFn::var(3, 0) & &BoolFn::var(3, 2)), &db).unwrap();
        for world in 0..(1u64 << db.len().min(20)) {
            assert_eq!(
                manager.eval(both, &|v| (world >> v) & 1 == 1),
                direct.manager.eval(direct.root, &|v| (world >> v) & 1 == 1)
            );
        }
    }

    #[test]
    fn split_compiler_rejects_dependent_functions() {
        let db = complete_database(2, 1);
        let mut compiler = SplitCompiler::new(&db, 1);
        assert_eq!(
            compiler.compile(&BoolFn::var(3, 1)).unwrap_err(),
            LineageError::NotDegenerate
        );
    }

    /// The patched lineage must be **bit-identical** to a fresh compile:
    /// canonicity per order means equal reduced DAGs, and every walk
    /// depends only on the DAG — so exact probabilities are equal and
    /// f64 walks agree to the bit.
    fn assert_patch_matches_fresh(psi: &BoolFn, old_db: &Database, new_db: &Database) {
        let lin = compile_degenerate_obdd(psi, old_db).expect("compiles");
        let patched = lin.patched(old_db, new_db).expect("single-slot patch");
        let fresh = compile_degenerate_obdd(psi, new_db).expect("compiles");
        assert_eq!(patched.split, fresh.split);
        assert_eq!(patched.manager.order(), fresh.manager.order());
        for world in 0..(1u64 << new_db.len()) {
            assert_eq!(
                patched
                    .manager
                    .eval(patched.root, &|v| (world >> v) & 1 == 1),
                fresh.manager.eval(fresh.root, &|v| (world >> v) & 1 == 1),
                "world={world:#b}"
            );
        }
        let p = |v: u32| 0.05 + 0.9 * f64::from(v + 1) / f64::from(new_db.len() as u32 + 1);
        let walk = |lin: &DegenerateLineage| {
            let mut scratch = EvalScratch::new();
            scratch.prepare(lin.manager.order().iter().copied(), p);
            lin.manager.probability(lin.root, &mut scratch)
        };
        assert_eq!(
            walk(&patched).to_bits(),
            walk(&fresh).to_bits(),
            "bit-identical probability walks"
        );
        assert!(patched.is_patchable(), "patches stay patchable");
    }

    #[test]
    fn patched_insert_matches_fresh_compile_everywhere() {
        // Start from a complete instance minus one tuple, insert it
        // back — for every possible missing tuple and several ψ (so the
        // flipped slot ranges over Π_L, Π_R, and out-of-stream).
        let full = complete_database(2, 2);
        let functions = [
            &BoolFn::var(3, 0) & &!&BoolFn::var(3, 2), // split l = 1
            &BoolFn::var(3, 1) ^ &BoolFn::var(3, 2),   // split l = 0: R out of stream
            &BoolFn::var(3, 0) | &BoolFn::var(3, 1),   // split l = 2: T out of stream
        ];
        for (_, missing) in full.iter() {
            let mut old_db = Database::new(2, 2);
            for (_, desc) in full.iter() {
                if desc != missing {
                    old_db.insert(desc).unwrap();
                }
            }
            let mut new_db = old_db.clone();
            new_db.insert(missing).unwrap();
            for psi in &functions {
                assert_patch_matches_fresh(psi, &old_db, &new_db);
            }
        }
    }

    #[test]
    fn patched_remove_matches_fresh_compile_everywhere() {
        // Removal also renumbers every later tuple id — the remap must
        // track both the level shift and the new order.
        let full = complete_database(2, 2);
        let functions = [
            &BoolFn::var(3, 0) & &!&BoolFn::var(3, 2),
            &BoolFn::var(3, 1) ^ &BoolFn::var(3, 2),
            &BoolFn::var(3, 0) | &BoolFn::var(3, 1),
        ];
        for (id, _) in full.iter() {
            let old_db = full.clone();
            let mut new_db = full.clone();
            new_db.remove(id).unwrap();
            for psi in &functions {
                assert_patch_matches_fresh(psi, &old_db, &new_db);
            }
        }
    }

    #[test]
    fn patched_update_streams_on_sparse_instances() {
        // Random insert/remove walks starting from the empty instance and
        // from sparse ones, patching step over step (patch-of-patch
        // composition), at every split. Inserting into a slot that was
        // absent at compile time is where the states a slot can be read
        // in (any presence) differ most from those the instance reaches.
        let mut rng = StdRng::seed_from_u64(41);
        let functions = [
            &BoolFn::var(3, 1) ^ &BoolFn::var(3, 2), // split l = 0
            &BoolFn::var(3, 0) ^ &BoolFn::var(3, 2), // split l = 1
            &BoolFn::var(3, 0) | &BoolFn::var(3, 1), // split l = 2 = k
        ];
        let mut starts = vec![Database::new(2, 2)];
        starts.extend((0..5).map(|_| {
            random_database(
                &DbGenConfig {
                    k: 2,
                    domain_size: 2,
                    density: 0.4,
                    prob_denominator: 10,
                },
                &mut rng,
            )
        }));
        for (psi, start) in functions
            .iter()
            .flat_map(|psi| starts.iter().map(move |db| (psi, db)))
        {
            let mut db = start.clone();
            let mut lin = compile_degenerate_obdd(psi, &db).unwrap();
            let all = complete_database(2, 2);
            for step in 0..6 {
                let old_db = db.clone();
                // Alternate: insert a missing tuple, then remove some tuple.
                if step % 2 == 0 {
                    let missing = all
                        .iter()
                        .map(|(_, d)| d)
                        .find(|&d| db.tuple_id(d).is_none());
                    match missing {
                        Some(d) => {
                            db.insert(d).unwrap();
                        }
                        None => continue,
                    }
                } else if db.len() > 1 {
                    db.remove(TupleId((step * 7) as u32 % db.len() as u32))
                        .unwrap();
                } else {
                    continue;
                }
                lin = lin.patched(&old_db, &db).expect("one tuple changed");
                let fresh = compile_degenerate_obdd(psi, &db).unwrap();
                for world in 0..(1u64 << db.len()) {
                    assert_eq!(
                        lin.manager.eval(lin.root, &|v| (world >> v) & 1 == 1),
                        fresh.manager.eval(fresh.root, &|v| (world >> v) & 1 == 1),
                    );
                }
                let prefix = |l: &DegenerateLineage| -> Vec<_> {
                    l.manager.node_entries().take(l.size()).collect()
                };
                assert_eq!(prefix(&lin), prefix(&fresh), "the stored nodes");
            }
        }
    }

    #[test]
    fn patched_rejects_what_it_cannot_patch() {
        let db = complete_database(2, 2);
        let psi = &BoolFn::var(3, 0) & &!&BoolFn::var(3, 2);
        let lin = compile_degenerate_obdd(&psi, &db).unwrap();
        // Two tuples removed at once: more than one slot flips.
        let mut two_gone = db.clone();
        two_gone.remove(TupleId(0)).unwrap();
        two_gone.remove(TupleId(0)).unwrap();
        assert!(lin.patched(&db, &two_gone).is_none());
        // Mismatched k or domain.
        assert!(lin.patched(&db, &complete_database(3, 2)).is_none());
        assert!(lin.patched(&db, &complete_database(2, 3)).is_none());
        // `old_db` that is not the compile-time database.
        let mut other = db.clone();
        other.remove(TupleId(3)).unwrap();
        assert!(lin.patched(&other, &db).is_none());
        // Trace-less lineages (the deserialization constructor) refuse.
        let bare = DegenerateLineage::new(
            ObddManager::new(lin.manager.order().to_vec()),
            NodeRef::FALSE,
            lin.split,
        );
        assert!(!bare.is_patchable());
        let mut one_gone = db.clone();
        one_gone.remove(TupleId(0)).unwrap();
        assert!(bare.patched(&db, &one_gone).is_none());
        // The apply-route ablation records no trace either.
        let ablation = compile_degenerate_obdd_apply(&psi, &db).unwrap();
        assert!(!ablation.is_patchable());
    }

    #[test]
    fn to_circuit_round_trip() {
        let db = complete_database(2, 1);
        let psi = BoolFn::from_sat(3, [0b000u32, 0b010]); // skips var 1
        let lin = compile_degenerate_obdd(&psi, &db).unwrap();
        let (c, root) = lin.to_circuit();
        intext_circuits::verify::check_dd(&c, root).expect("valid d-D");
        for world in 0..(1u64 << db.len()) {
            assert_eq!(
                c.eval(root, &|v| (world >> v) & 1 == 1),
                lin.manager.eval(lin.root, &|v| (world >> v) & 1 == 1)
            );
        }
    }
}
