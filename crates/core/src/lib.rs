//! The paper's contribution: compiling safe `H`-queries into
//! deterministic decomposable circuits in polynomial time
//! (Monet, *Solving a Special Case of the Intensional vs Extensional
//! Conjecture in Probabilistic Databases*, PODS 2020).
//!
//! # The pipeline (Theorem 5.2)
//!
//! For any Boolean function `φ` with zero Euler characteristic:
//!
//! 1. **Transformation** ([`transform`]) — produce a sequence of
//!    elementary `∼▷±` steps (Definition 5.5: add or remove two
//!    *adjacent* satisfying valuations) from `⊥` to `φ`, via the
//!    fetching lemma (5.11) and chainkilling/chainswapping (5.10); this
//!    is Proposition 5.9 made executable.
//! 2. **Fragmentation** ([`template`]) — replay the steps as a
//!    `¬`-`∨`-template over *degenerate* pair-functions `ψ_i` with
//!    `SAT(ψ_i) = {ν, ν^(l)}` (Proposition 5.8). Every `∨` in the
//!    template is deterministic by construction.
//! 3. **Compilation** ([`pipeline`]) — compile each degenerate leaf into
//!    an OBDD by the grouped-order automaton of `intext-lineage`
//!    (Proposition 3.7), compacted to its reachable nodes. Plugged into
//!    the template's holes the OBDDs form a d-D for `Lin(Q_φ, D)`
//!    (Proposition 4.4), built in time polynomial in `|D|`. The artifact
//!    keeps the template and the leaves apart: every template `∨` is
//!    deterministic (a sum) and `¬` is `1 − x`, so the probability is
//!    one linear pass per leaf combined through the template — written
//!    once, generic over the number type ([`CompiledLineage::walk`]) —
//!    and the plugged circuit is only built on demand
//!    ([`CompiledLineage::to_circuit`]).
//!
//! Since every safe `H⁺`-query has `e(φ) = 0` (Corollary 3.9), this
//! proves Corollary 5.3: **all safe `H⁺`-queries are in d-D(PTIME)** —
//! inclusion–exclusion simulated by negation, refuting the expected
//! intensional/extensional separation on this class.
//!
//! The remaining modules implement the rest of the paper: [`transfer`]
//! realizes Theorem 6.2 (queries with equal Euler characteristic are
//! PQE-interreducible and d-D-equivalent), and [`classify()`](classify::classify) computes the
//! region map of Figure 1 (with Proposition 6.4's hardness transfer).

pub mod classify;
pub mod negfree;
pub mod pipeline;
pub mod template;
pub mod transfer;
pub mod transform;

pub use classify::{classify, hardness_witness, Region};
pub use negfree::{negation_free_fragmentation, removal_only_steps};
pub use pipeline::{compile_dd, CompileError, CompiledLineage};
pub use template::{Fold, Fragmentation, Template};
pub use transfer::{pqe_via_transfer, transfer_circuit};
pub use transform::{
    apply_steps, fetch_path, invert_steps, is_canonical, steps_between, steps_to_bottom,
    steps_to_canonical, steps_to_even_only, Step, StepError, StepKind, TransformError,
};
