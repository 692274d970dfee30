//! Queries: conjunctive queries over the `h_{k,i}` vocabulary, Boolean
//! combinations thereof, and the `H`-queries `Q_φ` of Monet (PODS 2020).
//!
//! Definition 3.1 fixes the building blocks
//!
//! * `h_{k,0} = ∃x∃y R(x) ∧ S_1(x,y)`
//! * `h_{k,i} = ∃x∃y S_i(x,y) ∧ S_{i+1}(x,y)` for `1 <= i < k`
//! * `h_{k,k} = ∃x∃y S_k(x,y) ∧ T(y)`
//!
//! and Definition 3.2 builds `Q_φ = φ[0 ↦ h_{k,0}, ..., k ↦ h_{k,k}]` for
//! any Boolean function `φ` on `V = {0..k}`. When `φ` is monotone, `Q_φ`
//! is a UCQ (`H⁺`); in general it is a Boolean combination of CQs.
//!
//! This crate provides:
//! * a small generic conjunctive-query engine ([`ConjunctiveQuery`],
//!   evaluated by backtracking) used to *define* the `h` queries,
//! * the specialized [`HQuery`] type with fast witness enumeration,
//! * brute-force probabilistic evaluation over all possible worlds
//!   ([`pqe_brute_force`]) — exponential, but the exact ground truth that
//!   every other engine in the workspace is validated against,
//! * the general UCQ front door: a text [`parse_query`] over a named
//!   vocabulary, the unified [`Query`] type every engine entry point
//!   accepts, Dalvi–Suciu safety testing and lifted inference for safe
//!   UCQs ([`is_safe_ucq`], [`lifted_probability`]), H-shape
//!   recognition onto the `φ + h_{k,i}` machinery ([`recognize_h`]),
//!   and grounded circuit compilation for everything else
//!   ([`ground_circuit`]).
//!
//! Every probability computation here — brute force, lifted inference,
//! grounded weighted model counting — is one function generic over
//! [`intext_numeric::ProbNum`]: `pqe_brute_force::<BigRational>` is the
//! exact oracle, `pqe_brute_force::<f64>` the same recursion in floats.

mod brute;
mod cq;
mod dnf;
mod ground;
mod hardness;
mod hquery;
mod lifted;
mod parse;
mod query;
mod ucq;

pub use brute::{pqe_brute_force, BruteForceError};
pub use cq::{Atom, ConjunctiveQuery, Term};
pub use dnf::{dnf_clause_bound, lineage_dnf, DnfLineage};
pub use ground::{ground_circuit, ground_circuit_probability, ground_cq, ucq_brute_force};
pub use hardness::Pp2Cnf;
pub use hquery::{h_cq, h_truth_vector, h_witnesses, HQuery};
pub use lifted::{is_safe_ucq, lifted_probability};
pub use parse::{parse_query, ParseError, MAX_DEPTH};
pub use query::{h_query_text, recognize_h, Query};
pub use ucq::{QueryExpr, Ucq, MAX_UCQ_DISJUNCTS};
