//! Quickstart: open the [`PqeEngine`] front door with a **UCQ parsed
//! from text** over a named vocabulary — safe queries take a lifted
//! PTIME plan, unsafe ones ground to a lineage circuit (DESIGN.md §11)
//! — then evaluate Dalvi–Suciu's query `q9` (the paper's `Q_φ9`), which
//! the engine classifies on the paper's Figure 1 map, routes to the
//! cheapest sound backend, and caches the compiled lineage so
//! probability re-weightings are linear circuit walks. Cross-check all
//! three underlying routes:
//!
//! 1. brute force over all possible worlds (exponential, exact),
//! 2. extensional lifted inference (Möbius inversion, Proposition 3.5) —
//!    the reference oracle: the engine itself routes every safe H-query
//!    to a cacheable circuit (Corollary 5.3),
//! 3. the paper's intensional d-D pipeline (Theorem 5.2),
//!
//! and finish in the hard region: a `#P`-hard query on an instance no
//! exact route can touch gets an anytime `(ε, δ)`-bounded Monte-Carlo
//! estimate (DESIGN.md §7).
//!
//! Run with: `cargo run --release --example quickstart`

use intext::boolfn::{phi9, BoolFn};
use intext::core::compile_dd;
use intext::engine::{EngineConfig, PqeEngine, SamplingConfig};
use intext::extensional::pqe_extensional;
use intext::numeric::BigRational;
use intext::query::{pqe_brute_force, HQuery, Query};
use intext::serve::{ServeConfig, Server};
use intext::tid::{
    complete_database, random_database, random_tid, uniform_tid, DbGenConfig, TupleId, Vocabulary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Any UCQ text over a named vocabulary (two unary relations plus k
    // binary ones) is a query. The planner routes parsed queries like
    // everything else: Dalvi–Suciu-safe ones get a lifted PTIME plan,
    // H-shaped ones are recognized onto the Figure 1 machinery, and
    // unsafe ones ground to a lineage OBDD within a budget.
    let voc = Vocabulary::new(
        vec!["Author".to_string(), "Cited".to_string()],
        vec!["Wrote".to_string()],
    )
    .expect("two unary + one binary relation is a valid vocabulary");
    let papers = uniform_tid(complete_database(1, 2), BigRational::from_ratio(1, 2));
    let safe_q = Query::parse("Wrote(0,y), Cited(y)", &voc).expect("well-formed UCQ");
    let unsafe_q = Query::parse("Author(x), Wrote(x,y), Cited(y)", &voc).expect("well-formed UCQ");
    let mut front = PqeEngine::new();
    println!("UCQ front door (DESIGN.md §11):");
    println!("  {safe_q}\n    {}", front.explain(&safe_q, &papers));
    println!("  {unsafe_q}\n    {}", front.explain(&unsafe_q, &papers));
    let p_safe = front.evaluate(&safe_q, &papers).expect("safe: lifted");
    let p_unsafe = front.evaluate(&unsafe_q, &papers).expect("small: grounded");
    println!("  P(safe) = {p_safe}   P(unsafe) = {p_unsafe}\n");

    let mut rng = StdRng::seed_from_u64(2020);
    let db = random_database(
        &DbGenConfig {
            k: 3,
            domain_size: 2,
            density: 0.8,
            prob_denominator: 10,
        },
        &mut rng,
    );
    let mut tid = random_tid(db, 10, &mut rng);

    println!("database: k = 3, domain = 2, {} tuples", tid.len());
    for (id, desc) in tid.database().iter() {
        println!("  {desc}  with probability {}", tid.prob(id));
    }

    // phi9 = (2∨3) ∧ (0∨3) ∧ (1∨3) ∧ (0∨1∨2)  (Example 3.3 — the simplest
    // safe UCQ whose extensional evaluation needs Möbius inversion).
    let q = HQuery::new(phi9());
    println!("\nquery: Q_φ9 over h_{{3,0}}..h_{{3,3}} (safe; e(φ9) = 0)");

    // The engine is the front door: it plans, compiles, caches, evaluates.
    let mut engine = PqeEngine::new();
    println!("planner: {}", engine.explain(&q, &tid));
    let p = engine.evaluate(&q, &tid).expect("φ9 is tractable");
    let first = engine.stats().last.expect("just evaluated");
    println!(
        "engine answer                : {p}\n  [{} leaf OBDD nodes compiled in {:?}, evaluated in {:?}]",
        first.circuit_size.unwrap_or(0),
        first.compile_time,
        first.eval_time,
    );

    // Re-weight one tuple: the cached circuit is re-walked, not recompiled.
    tid.set_prob(TupleId(0), BigRational::from_ratio(1, 97))
        .expect("valid probability");
    let reweighted = engine.evaluate(&q, &tid).expect("cached");
    let second = engine.stats().last.expect("just evaluated");
    println!(
        "re-weighted (tuple 0 → 1/97) : {reweighted}\n  [cache hit: {}, recompile time {:?}]",
        second.cache_hit, second.compile_time,
    );
    assert!(second.cache_hit, "re-weighting must reuse the artifact");

    // Live updates: remove a tuple, then put it back. Each structural
    // change patches every cached artifact in place (Prop 3.7 group
    // extension, leaf by leaf for a d-D, DESIGN.md §9) — zero
    // recompiles, and the patched artifact stays exact ground truth.
    let (desc, p0) = engine
        .remove_tuple(&mut tid, TupleId(0))
        .expect("tuple 0 exists");
    let without = engine.evaluate(&q, &tid).expect("patched artifact");
    assert_eq!(
        without,
        pqe_brute_force(&q, &tid).expect("small instance"),
        "patched artifact must equal ground truth"
    );
    engine
        .insert_tuple(&mut tid, desc, p0)
        .expect("the removed tuple fits back");
    let restored = engine.evaluate(&q, &tid).expect("patched artifact");
    assert_eq!(restored, reweighted, "same tuples, same probability");
    assert_eq!(
        engine.stats().cache_misses,
        1,
        "live updates never recompile — the warm-up compile stays the only one"
    );
    println!(
        "live update (remove {desc}, re-insert): P = {without} without it; \
         {} patches applied, {} recompiles avoided, still 1 compile ever",
        engine.stats().patches_applied,
        engine.stats().full_recompiles_avoided,
    );

    // Equivalence demo: the three routes agree bit-for-bit.
    let brute: BigRational = pqe_brute_force(&q, &tid).expect("small instance");
    println!("\nbrute force over 2^{} worlds : {brute}", tid.len());

    let ext = pqe_extensional(&q, &tid).expect("phi9 is safe");
    println!("extensional (Möbius)         : {ext}");

    let dd = compile_dd(&phi9(), tid.database()).expect("e(φ9) = 0");
    let int: BigRational = dd.probability(&tid);
    println!("intensional (d-D lineage)    : {int}");
    println!(
        "compiled d-D: {} leaf OBDD nodes; plugged into one circuit: {}",
        dd.size(),
        dd.to_circuit().0.stats()
    );
    println!(
        "template: {} leaves, {} negation gates",
        dd.leaves().len(),
        dd.template().negation_count()
    );

    assert_eq!(brute, ext, "extensional must equal ground truth");
    assert_eq!(brute, int, "intensional must equal ground truth");
    assert_eq!(brute, reweighted, "engine must equal ground truth");

    // Scenario sweep, sharded: one compile amortized across a workload
    // fanned over 4 worker threads walking the same Arc-shared circuit.
    let scenarios: Vec<_> = (0..8u32)
        .map(|s| {
            let mut scenario = tid.clone();
            scenario
                .set_prob(TupleId(s % 3), BigRational::from_ratio(1, u64::from(s) + 2))
                .expect("valid probability");
            scenario
        })
        .collect();
    let sharded = engine
        .evaluate_batch_sharded(&q, &scenarios, 4)
        .expect("same shape as the cached circuit");
    let sequential: Vec<_> = scenarios
        .iter()
        .map(|s| engine.evaluate(&q, s).expect("cached"))
        .collect();
    assert_eq!(sharded, sequential, "sharding never changes the bits");
    println!(
        "\nsharded batch: {}  (bit-identical to sequential ✓)",
        engine.stats().last_batch.expect("batch just ran"),
    );

    // Floating-point batches drive the lane-batched evaluation kernel
    // (here on one shard): one circuit walk per 8 scenarios instead of
    // one per scenario, bit-identical to the scalar loop (DESIGN.md §6).
    // The stats split the batch's time into compiling vs walking.
    let lane = engine
        .evaluate_batch_sharded_f64(&q, &scenarios, 1)
        .expect("same shape as the cached circuit");
    let scalar: Vec<f64> = scenarios
        .iter()
        .map(|s| engine.evaluate_f64(&q, s).expect("cached"))
        .collect();
    assert_eq!(lane, scalar, "lane batching never changes the bits");
    println!(
        "lane-batched f64 batch: {} scenarios in {} kernel call(s); \
         lifetime compile {} ns vs walk {} ns",
        scenarios.len(),
        engine.stats().lane_kernel_calls,
        engine.stats().compile_nanos(),
        engine.stats().walk_nanos,
    );

    // Persistence: snapshot the compiled circuits (versioned binary
    // format, DESIGN.md §5) and warm-start a replica engine — zero
    // compiles, bit-identical answers under any re-weighting.
    let snapshot = engine.save_cache();
    let mut replica = PqeEngine::new();
    let report = replica.load_cache(&snapshot).expect("own snapshot loads");
    let replayed = replica.evaluate(&q, &tid).expect("warm replica");
    assert_eq!(replayed, reweighted, "loaded circuit must match exactly");
    assert_eq!(
        replica.stats().cache_misses,
        0,
        "no compiles on the replica"
    );
    println!(
        "\nwarm start: {} artifact(s), {} leaf nodes from a {}-byte snapshot \
         (0 compiles on replay ✓)",
        report.artifacts,
        report.gates,
        snapshot.len(),
    );

    // The hard region: an H₀-style query (e(φ) ≠ 0, #P-hard) on an
    // instance whose 2^40 possible worlds no brute-force budget can
    // touch. With sampling enabled the engine returns an anytime
    // (ε, δ)-bounded Monte-Carlo estimate instead of refusing
    // (DESIGN.md §7) — deterministic per seed, shard-invariant.
    let hard_q = HQuery::new(BoolFn::from_fn(3, |v| v != 0));
    let hard_tid = uniform_tid(complete_database(2, 4), BigRational::from_ratio(1, 4));
    let mut sampler = PqeEngine::with_config(EngineConfig {
        sampling: Some(SamplingConfig {
            eps: 0.02,
            delta: 1e-3,
            ..SamplingConfig::default()
        }),
        ..EngineConfig::default()
    });
    println!(
        "\nhard query planner: {}",
        sampler.explain(&hard_q, &hard_tid)
    );
    let est = sampler
        .estimate(&hard_q, &hard_tid)
        .expect("sampling is enabled");
    println!(
        "hard query estimate: {:.4} ± {} (δ = {}) from {} samples in {:?}",
        est.value, est.eps, est.delta, est.samples, est.elapsed,
    );

    // PQE-as-a-service (DESIGN.md §10): the same engine behind a
    // concurrent front door — bounded admission queue, worker pool
    // walking Arc-shared artifacts, snapshot endpoint — with answers
    // bit-identical to the direct calls above. `ServeHandle` clones
    // are the per-client-thread entry point; `intext-serve --tcp`
    // exposes the same requests over a socket.
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("default engine config is valid");
    let handle = server.handle();
    let served = handle
        .evaluate(&q, &tid)
        .expect("same query, same instance");
    assert_eq!(served, int, "served answers are bit-identical");
    let served_snapshot = handle.snapshot().expect("snapshot endpoint");
    let stats = server.shutdown();
    println!(
        "\nserved: {} == direct engine ✓  ({} queries via the server, \
         {}-byte snapshot for replicas)",
        served,
        stats.queries,
        served_snapshot.len(),
    );

    println!(
        "\nall routes agree exactly ✓  (≈ {:.6})\nengine stats: {}",
        int.to_f64(),
        engine.stats(),
    );
}
