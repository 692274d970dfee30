//! The unified PQE front door: one planner over the workspace's six
//! evaluation backends, with compiled-lineage caching.
//!
//! The engine implements six routes for probabilistic query evaluation —
//! brute-force possible-worlds enumeration, the degenerate-`φ` OBDD of
//! Proposition 3.7, the zero-Euler d-D pipeline of Theorem 5.2, a
//! Monte-Carlo anytime backend ([`Plan::Sample`]) for hard instances
//! beyond the brute-force budget, and — behind the UCQ front door — a
//! structural lifted plan ([`Plan::Lifted`]) for Dalvi–Suciu-safe
//! general queries plus a grounded lineage circuit
//! ([`Plan::GroundCircuit`]) for unsafe ones within a budget. Safe
//! H-queries take the cacheable intensional route: by Corollary 5.3
//! every safe H⁺-query has a polynomial-time d-D (`intext-extensional`
//! stays as the reference oracle). [`PqeEngine`] makes the choice
//! automatic, and every entry point runs one pipeline:
//!
//! 1. **Plan** — [`PqeEngine::prepare_batch`] (and
//!    [`PqeEngine::prepare`], its batch of one) resolves any [`Query`]
//!    (an [`intext_query::HQuery`], or a parsed UCQ over a vocabulary):
//!    H-shaped queries — including parsed queries *recognized* as
//!    H-shaped — classify on the paper's Figure 1 region map
//!    ([`intext_core::classify()`]) and pick the cheapest sound backend;
//!    general queries split by the Dalvi–Suciu safety test. Each run of
//!    consecutive same-shape scenarios is planned once, before anything
//!    is fetched or compiled; [`PqeEngine::explain`] narrates a plan.
//! 2. **Prepare** — the same call then fetches or builds each run's
//!    shared state once, in scenario order; a cache hit refreshes the
//!    artifact's LRU recency. Every cacheable plan compiles one
//!    artifact shape, [`Artifact`]: a `¬`-`∨`-template over leaf OBDDs
//!    compacted to their reachable nodes (a d-D has one leaf per
//!    fragment, a Proposition 3.7 or grounded OBDD is the one-leaf
//!    template). Artifacts are keyed by `(φ's canonical truth table,
//!    database shape)` and *not* by tuple probabilities, so
//!    re-evaluating under new probabilities is one linear pass per leaf
//!    instead of a recompilation. They live in an LRU [`ArtifactCache`]
//!    as `Arc<Artifact>`, budgeted in leaf OBDD nodes
//!    ([`EngineConfig::cache_gate_budget`]) so memory is bounded, and
//!    shared immutably across threads.
//! 3. **Execute** — a [`PreparedQuery`] evaluates one scenario; a
//!    [`PreparedBatch`] fans a workload across `std::thread::scope`
//!    workers ([`PqeEngine::evaluate_batch_sharded`],
//!    [`PqeEngine::evaluate_batch_sharded_f64`]), bit-identical to
//!    evaluating each scenario alone. Exact and f64 share one walker,
//!    and every computation it runs is one pass generic over
//!    [`intext_numeric::ProbNum`]; f64 batches drive the **lane-batched
//!    evaluation kernel** — the artifact's pass on `[f64; LANES]`
//!    blocks, one per [`intext_circuits::LANES`] same-shape scenarios,
//!    with zero steady-state allocations. Sampled scenarios draw from
//!    RNG streams `(seed, global scenario index)`, so sharded sampling
//!    is bit-identical to sequential.
//! 4. **Observe** — every evaluation records [`QueryStats`] (plan, cache
//!    hit/miss, artifact size, wall time) into aggregate
//!    [`EngineStats`]; per-shard stats fold back into one report via
//!    [`EngineStats::merge`], and each batch leaves its [`BatchPlan`]
//!    in `EngineStats::last_batch`. Timing splits into
//!    `EngineStats::compile_nanos` vs `EngineStats::walk_nanos`, with
//!    `EngineStats::lane_kernel_calls` counting the kernel's
//!    amortization.
//!
//! The hard region — previously a dead end past
//! [`EngineConfig::max_brute_force_tuples`] — gets an *anytime* story:
//! enable [`EngineConfig::sampling`] and [`PqeEngine::estimate`] returns
//! an [`Estimate`] with an `(ε, δ)` additive-error guarantee, produced
//! by Karp–Luby DNF sampling over the grounded lineage (monotone `φ`)
//! or naive world sampling over the witness pairs (everything else);
//! [`PqeEngine::explain`] names the sampler and the reason.
//!
//! Live instances update **in place**: [`PqeEngine::insert_tuple`] /
//! [`PqeEngine::remove_tuple`] incrementally *patch* every cached
//! artifact across the structural change instead of recompiling
//! ([`EngineStats::patches_applied`] / `patch_nanos`), a
//! probability-only [`PqeEngine::set_probability`] touches no structure
//! at all, and [`PqeEngine::export_delta`] / [`PqeEngine::apply_delta`]
//! ship one update to replicas as a versioned [`store`] delta blob —
//! patched artifacts are bit-identical to fresh compiles, so replicas
//! can never drift. Live updates and deltas share one patch step.
//! `DESIGN.md` §9 has the patch algorithm and the per-artifact
//! soundness argument; E23 measures patch vs recompile.
//!
//! Every binary format — [`store`] blobs, [`wal`] records, and the
//! serve crate's wire frames — reads and writes through one
//! little-endian [`codec`], which owns the tuple encoding, the FNV-1a
//! checksum and the 64 MiB frame bound (`DESIGN.md` §5).
//!
//! `DESIGN.md` (repo root) has the routing diagram, the cache-key
//! rationale, the concurrency & memory model, the evaluation-kernel
//! contract (§6), and the sampling backend (§7); `EXPERIMENTS.md`
//! describes the cold-vs-cached (E17), sharding (E18), eviction (E19),
//! store (E20), lane-kernel (E21), and sampling (E22) benchmarks.
//!
//! # Example: auto-routing and cached re-weighting
//!
//! ```
//! use intext_boolfn::phi9;
//! use intext_engine::{Plan, PqeEngine};
//! use intext_numeric::BigRational;
//! use intext_query::HQuery;
//! use intext_tid::{complete_database, uniform_tid, TupleId};
//!
//! let mut engine = PqeEngine::new();
//! let q = HQuery::new(phi9());
//! let mut tid = uniform_tid(complete_database(3, 1), BigRational::from_ratio(1, 2));
//!
//! // φ9 is safe and nondegenerate with e(φ9) = 0: the planner picks the
//! // d-D pipeline, compiles once, and caches the artifact.
//! assert_eq!(engine.plan(&q, &tid), Ok(Plan::DdCircuit));
//! let cold = engine.evaluate(&q, &tid).unwrap();
//! assert_eq!(engine.stats().cache_misses, 1);
//!
//! // Re-weight a tuple and evaluate again: same artifact, no recompile.
//! tid.set_prob(TupleId(0), BigRational::from_ratio(1, 3)).unwrap();
//! let reweighted = engine.evaluate(&q, &tid).unwrap();
//! assert_eq!(engine.stats().cache_hits, 1);
//! assert_ne!(cold, reweighted);
//! ```

#![deny(missing_docs)]

mod cache;
pub mod codec;
mod engine;
pub mod fsio;
mod plan;
mod recovery;
mod sample;
mod stats;
pub mod store;
pub mod wal;

pub use cache::{Artifact, ArtifactCache, CacheKey};
pub use engine::{
    ConfigError, EngineConfig, EngineError, LaneScratch, LoadReport, PqeEngine, PreparedBatch,
    PreparedQuery,
};
pub use intext_query::Query;
pub use plan::{BatchPlan, Explanation, Plan};
pub use recovery::{
    DurableDir, Quarantine, RecoveryReport, SnapshotSource, SNAPSHOT_FILE, SNAPSHOT_PREV_FILE,
    SNAPSHOT_TMP_FILE, WAL_FILE,
};
pub use sample::{Estimate, SamplerKind, SamplingConfig};
pub use stats::{EngineStats, LatencyHistogram, QueryStats, RouteLatency};
pub use store::{ArtifactKind, StoreError, TupleUpdate, FORMAT_VERSION, MAGIC};
pub use wal::{Wal, WalCorruption, WalRecord, WalReplay};
