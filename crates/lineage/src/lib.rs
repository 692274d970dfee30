//! Lineage compilation for degenerate `H`-queries into OBDDs —
//! Proposition 3.7 / Appendix B.1 of Monet (PODS 2020), built from
//! scratch (the paper uses Fink & Olteanu \[16\] as a black box).
//!
//! # The construction
//!
//! Let `ψ` be a Boolean function on `V = {0..k}` that does not depend on
//! some variable `l`. The queries `h_{k,i}` with `i < l` only touch the
//! relations `R, S_1, ..., S_l`, and those with `i > l` only touch
//! `S_{l+1}, ..., S_k, T` — disjoint halves of the vocabulary. Order the
//! tuples of the database as `Π_L · Π_R` where
//!
//! * `Π_L` groups by the *first* attribute: for each domain constant `a`,
//!   first `R(a)`, then `S_1(a,b), ..., S_l(a,b)` for each `b`;
//! * `Π_R` groups by the *second* attribute: for each `b`, first `T(b)`,
//!   then `S_{l+1}(a,b), ..., S_k(a,b)` for each `a`.
//!
//! Under this order every `h_{k,i}` (`i ≠ l`) is recognized by a
//! *streaming automaton* with O(1) state: a "witness found" bit plus a
//! per-group latch (`R(a)` seen; `T(b)` seen; previous `S` of the current
//! pair seen). The product of all k automata has constantly many states
//! *in data complexity* (`<= 2^(k+4)`), and unrolling it over the tuple
//! stream yields a reduced OBDD for `Lin(Q_ψ, D)` of size linear in `|D|`.
//! The unroll visits at each slot only the states the product can be in
//! there, a superset computed from the stream's shape alone: at `k = 3`,
//! 18–31 of the 128 on average.
//!
//! This is exactly the black box Proposition 4.4 plugs into the holes of
//! the `¬`-`∨`-templates, and what Theorem 6.2's transfer construction
//! uses for the degenerate pair-functions `ψ_i`.

mod automaton;
mod compile;

pub use automaton::{slot_stream, ReadOp, StreamStep};
pub use compile::{
    compile_degenerate_obdd, compile_degenerate_obdd_apply, DegenerateLineage, LineageError,
    SplitCompiler,
};
