//! Knowledge compilation formalisms (Section 2 of Monet, PODS 2020).
//!
//! The intensional approach to probabilistic query evaluation represents
//! the lineage of a query in a formalism whose structure makes weighted
//! model counting linear:
//!
//! * **deterministic decomposable circuits (d-Ds)** — Boolean circuits
//!   where every `∧`-gate has inputs on disjoint variable sets
//!   (*decomposability* = probabilistic independence) and every `∨`-gate
//!   has pairwise disjoint inputs (*determinism* = disjoint events). The
//!   probability of a d-D is computed bottom-up with `×`, `+`, `1 - x`.
//! * **OBDDs** — ordered binary decision diagrams, a restricted d-D with
//!   constant-time equivalence checking and polynomial `apply`.
//!
//! This crate implements both from scratch: an arena [`Circuit`] type
//! with structural decomposability checking and semantic determinism
//! verification ([`verify`]), and a reduced-ordered [`ObddManager`] with
//! the standard `apply`/negate algorithms, probability computation,
//! model counting, and conversion into d-D circuits.
//!
//! Probability walks exploit that linearity aggressively. Each structure
//! has **one** probability pass, generic over the number trait
//! [`intext_numeric::ProbNum`]: [`Circuit::probability`] and
//! [`ObddManager::probability`] run in exact rationals, in `f64`, and on
//! `[f64; LANES]` blocks of scenarios alike, so an exact, an `f64` and a
//! lane answer are computed by the same code. Every OBDD walk is one
//! ascending pass over the arena up to the root ([`ObddManager::fold`])
//! — no reachability search, no recursion, no hash-memo — and
//! [`ObddManager::compact`] makes that pass visit exactly the root's
//! reachable nodes. The [`eval`] module holds the **lane-batched
//! kernel**'s buffers: a pass over [`LANES`]-wide blocks evaluates that
//! many probability scenarios over the same immutable artifact,
//! bit-identical per lane to the `f64` pass, with zero steady-state heap
//! allocations thanks to [`EvalScratch`] reuse (`DESIGN.md` §6).

mod circuit;
pub mod eval;
mod obdd;
pub mod verify;

pub use circuit::{Circuit, CircuitStats, Gate, GateId};
pub use eval::{EvalScratch, LANES};
pub use obdd::{NodeRef, ObddError, ObddManager};
