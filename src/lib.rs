//! `intext` — intensional vs extensional probabilistic query evaluation.
//!
//! A from-scratch Rust reproduction of Mikaël Monet, *"Solving a Special
//! Case of the Intensional vs Extensional Conjecture in Probabilistic
//! Databases"* (PODS 2020): probabilistic query evaluation for the
//! `H`-queries over tuple-independent databases, by **both** competing
//! approaches —
//!
//! * the **extensional** route ([`extensional`]): Dalvi–Suciu lifted
//!   inference with Möbius inversion over the CNF lattice, and
//! * the **intensional** route ([`core`]): the paper's new technique
//!   compiling the query lineage into a deterministic decomposable
//!   circuit (d-D) in polynomial time whenever the defining Boolean
//!   function has zero Euler characteristic — which covers *all safe
//!   `H⁺`-queries* and shows that inclusion–exclusion can be simulated
//!   with determinism, decomposability and negation alone.
//!
//! The front door is [`engine::PqeEngine`], and it accepts any
//! [`query::Query`] — an `H`-query built from `φ`, or a **UCQ parsed
//! from text** over a named vocabulary ([`Query::parse`]). H-shaped
//! queries (including parsed text *recognized* as H-shaped) classify on
//! the paper's Figure 1 region map and route to the cheapest sound
//! backend (OBDD, d-D pipeline, or brute force — safe ones always get a
//! cacheable circuit, by Corollary 5.3);
//! general queries split on the Dalvi–Suciu safety test — safe ones get
//! a lifted PTIME plan, unsafe ones ground to a lineage OBDD within a
//! budget (DESIGN.md §11). Compiled lineage artifacts are cached so
//! probability re-weightings are linear circuit walks instead of
//! recompilations. For long-lived deployments,
//!
//! [`Query::parse`]: query::Query::parse
//! [`serve`] puts one engine behind a concurrent front door — bounded
//! admission queue, worker pool evaluating over shared artifacts, typed
//! backpressure, and a length-prefixed socket protocol — with answers
//! bit-identical to calling the engine directly (see the `intext-serve`
//! binary).
//!
//! # Quickstart
//!
//! ```
//! use intext::boolfn::phi9;
//! use intext::core::compile_dd;
//! use intext::engine::{Plan, PqeEngine};
//! use intext::extensional::pqe_extensional;
//! use intext::numeric::BigRational;
//! use intext::query::{pqe_brute_force, HQuery, Query};
//! use intext::tid::{complete_database, uniform_tid, Vocabulary};
//!
//! // Open with a *parsed* query: any UCQ text over a named vocabulary
//! // (two unary relations + k binary ones). This one is Dalvi–Suciu
//! // safe but not H-shaped, so the planner gives it a lifted PTIME
//! // plan; the unsafe variant would ground to a lineage OBDD instead.
//! let voc = Vocabulary::new(
//!     vec!["Author".into(), "Cited".into()],
//!     vec!["Wrote".into()],
//! ).unwrap();
//! let parsed = Query::parse("Wrote(0,y), Cited(y)", &voc).unwrap();
//! let papers = uniform_tid(complete_database(1, 2), BigRational::from_ratio(1, 2));
//! let mut engine = PqeEngine::new();
//! assert_eq!(engine.plan(&parsed, &papers), Ok(Plan::Lifted));
//! engine.evaluate(&parsed, &papers).unwrap();
//! assert_eq!(engine.stats().plans(Plan::Lifted), 1);
//!
//! // Dalvi–Suciu's q9 on a complete database, every tuple with Pr = 1/2.
//! let tid = uniform_tid(complete_database(3, 2), BigRational::from_ratio(1, 2));
//! let q = HQuery::new(phi9());
//!
//! // Front door: the engine classifies φ9 (safe, e(φ9) = 0), compiles a
//! // d-D lineage (Theorem 5.2), caches it, and evaluates bottom-up.
//! let mut engine = PqeEngine::new();
//! assert_eq!(engine.plan(&q, &tid), Ok(Plan::DdCircuit));
//! let p = engine.evaluate(&q, &tid).unwrap();
//!
//! // Equivalence demo: the three underlying routes agree bit-for-bit.
//! let ext = pqe_extensional(&q, &tid).unwrap();
//! let dd = compile_dd(&phi9(), tid.database()).unwrap();
//! let brute = pqe_brute_force(&q, &tid).unwrap();
//! assert_eq!(p, ext);
//! assert_eq!(p, dd.probability::<BigRational>(&tid));
//! assert_eq!(p, brute);
//!
//! // Each probability pass is written once, generic over the number
//! // type: the same d-D walk in `f64` is what a server answers with.
//! let approx: f64 = dd.probability(&tid);
//! assert!((approx - p.to_f64()).abs() < 1e-12);
//!
//! // Scenario sweeps reuse the compiled circuit: shard a re-weighting
//! // workload across 4 worker threads, one compile for the whole batch.
//! let scenarios = vec![tid.clone(), tid.clone(), tid.clone(), tid.clone()];
//! let probs = engine.evaluate_batch_sharded(&q, &scenarios, 4).unwrap();
//! assert!(probs.iter().all(|pi| pi == &p));
//! assert_eq!(engine.stats().cache_misses, 1); // compiled exactly once
//!
//! // f64 batches go through the lane-batched kernel (here on one
//! // shard): one circuit walk per 8 scenarios, bit-identical to a
//! // per-scenario loop, with the time split into compiling vs walking
//! // (`compile_nanos`/`walk_nanos`).
//! let f64s = engine.evaluate_batch_sharded_f64(&q, &scenarios, 1).unwrap();
//! assert_eq!(f64s.len(), 4);
//! assert_eq!(engine.stats().lane_kernel_calls, 1); // 4 scenarios, 1 walk
//! assert!(engine.stats().walk_nanos > 0);
//!
//! // Bound the artifact cache (leaf OBDD nodes retained); LRU eviction keeps
//! // it under budget and counts into `stats().cache_evictions`.
//! engine.set_cache_budget(Some(1 << 20));
//!
//! // Persist the compiled artifacts (versioned format, DESIGN.md §5) and
//! // warm-start a replica: zero compiles, bit-identical answers.
//! let snapshot = engine.save_cache();
//! let mut replica = PqeEngine::new();
//! replica.load_cache(&snapshot).unwrap();
//! assert_eq!(replica.evaluate(&q, &tid).unwrap(), p);
//! assert_eq!(replica.stats().cache_misses, 0); // loaded, never compiled
//!
//! // Live updates patch the cached artifact instead of recompiling:
//! // removing a tuple contracts the compiled lineage in place, and
//! // re-inserting extends it back — bit-identical to fresh compiles
//! // at every step (DESIGN.md §9).
//! use intext::tid::TupleId;
//! let mut live = tid.clone();
//! let (desc, p0) = engine.remove_tuple(&mut live, TupleId(0)).unwrap();
//! let without = engine.evaluate(&q, &live).unwrap();
//! assert_eq!(without, pqe_brute_force(&q, &live).unwrap());
//! engine.insert_tuple(&mut live, desc, p0).unwrap();
//! assert_eq!(engine.evaluate(&q, &live).unwrap(), p); // same tuples back
//! assert_eq!(engine.stats().cache_misses, 1); // still just the warm-up
//! assert!(engine.stats().patches_applied >= 2); // patched, never recompiled
//!
//! // The hard region gets an anytime answer: enable sampling, and a
//! // #P-hard query past the brute-force budget (2^40 worlds here)
//! // returns an (ε, δ)-bounded Monte-Carlo estimate instead of
//! // refusing (DESIGN.md §7). Same seed ⟹ same bits, every time.
//! use intext::boolfn::BoolFn;
//! use intext::engine::{EngineConfig, SamplingConfig};
//! let hard = HQuery::new(BoolFn::from_fn(3, |v| v != 0)); // e(φ) ≠ 0
//! let big = uniform_tid(complete_database(2, 4), BigRational::from_ratio(1, 4));
//! let mut sampler = PqeEngine::with_config(EngineConfig {
//!     sampling: Some(SamplingConfig { eps: 0.02, delta: 1e-3, ..SamplingConfig::default() }),
//!     ..EngineConfig::default()
//! });
//! let est = sampler.estimate(&hard, &big).unwrap(); // Karp–Luby DNF sampling
//! assert!(est.samples > 0 && est.eps == 0.02 && est.value <= 1.0);
//! let why = sampler.explain(&hard, &big).to_string();
//! assert!(why.contains("Karp-Luby") && why.contains("sampling chosen"));
//! ```
//!
//! See `DESIGN.md` (repo root) for the paper-to-module map and the
//! engine routing diagram, and `EXPERIMENTS.md` for what each benchmark
//! measures and how to run it.

pub use intext_boolfn as boolfn;
pub use intext_circuits as circuits;
pub use intext_core as core;
pub use intext_engine as engine;
pub use intext_extensional as extensional;
pub use intext_lattice as lattice;
pub use intext_lineage as lineage;
pub use intext_matching as matching;
pub use intext_numeric as numeric;
pub use intext_query as query;
pub use intext_serve as serve;
pub use intext_tid as tid;
