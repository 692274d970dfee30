//! Sharded batch evaluation and the bounded artifact cache:
//!
//! * `evaluate_batch_sharded` is **bit-identical** to a sequential
//!   per-scenario `evaluate` loop for every Boolean function with
//!   `k ≤ 2` on randomized TIDs, across shard counts,
//! * per-shard `EngineStats` merged back equal the sequential totals,
//! * the LRU cache evicts exactly the least-recently-used artifact at
//!   the gate budget, recompiles on next access, never exceeds the
//!   budget, and its eviction counters reconcile with compile counts.
//!
//! CI runs this file twice — under `RUST_TEST_THREADS=1` and under the
//! default parallel harness — to catch accidental shared state between
//! the engine's worker threads and the test harness's own parallelism.

use intext::boolfn::{phi9, BoolFn};
use intext::engine::{EngineConfig, Plan, PqeEngine};
use intext::numeric::BigRational;
use intext::query::HQuery;
use intext::tid::{
    complete_database, random_database, random_tid, uniform_tid, DbGenConfig, Tid, TupleId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn half() -> BigRational {
    BigRational::from_ratio(1, 2)
}

/// `count` probability scenarios over one database shape: the base TID
/// with one random tuple re-weighted per scenario.
fn reweighted_scenarios(base: &Tid, count: usize, rng: &mut StdRng) -> Vec<Tid> {
    (0..count)
        .map(|_| {
            let mut tid = base.clone();
            let tuple = TupleId(rng.random_range(0..tid.len() as u32));
            let denom = rng.random_range(2..30u64);
            tid.set_prob(tuple, BigRational::from_ratio(1, denom))
                .unwrap();
            tid
        })
        .collect()
}

/// The counter halves of two `EngineStats` (everything except wall-clock
/// durations, which legitimately differ between runs).
fn counters(s: &intext::engine::EngineStats) -> [u64; 7] {
    [
        s.queries,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.plans(Plan::Obdd),
        s.plans(Plan::DdCircuit),
        s.plans(Plan::BruteForce),
    ]
}

/// The sequential oracle: one `evaluate` per scenario, in order.
fn evaluate_each(engine: &mut PqeEngine, q: &HQuery, scenarios: &[Tid]) -> Vec<BigRational> {
    scenarios
        .iter()
        .map(|tid| engine.evaluate(q, tid).unwrap())
        .collect()
}

/// Sharded ≡ sequential, bit for bit, for **all** 272 Boolean functions
/// with `k ≤ 2` (16 at k = 1, 256 at k = 2) on randomized TIDs — every
/// backend included: OBDD, d-D, and brute force all flow through the
/// same shard workers.
#[test]
fn sharded_equals_sequential_for_all_small_phi() {
    let mut rng = StdRng::seed_from_u64(1820);
    for k in 1..=2u8 {
        let db = random_database(
            &DbGenConfig {
                k,
                domain_size: 2,
                density: 0.75,
                prob_denominator: 6,
            },
            &mut rng,
        );
        let base = random_tid(db, 6, &mut rng);
        let scenarios = reweighted_scenarios(&base, 3, &mut rng);
        let mut sequential = PqeEngine::new();
        let mut sharded = PqeEngine::new();
        let n = k + 1;
        for table in 0..(1u64 << (1u32 << n)) {
            let phi = BoolFn::from_table_u64(n, table);
            let q = HQuery::new(phi);
            let expected = evaluate_each(&mut sequential, &q, &scenarios);
            let got = sharded.evaluate_batch_sharded(&q, &scenarios, 3).unwrap();
            assert_eq!(got, expected, "k={k}, table {table:#x}");
        }
        // The sweeps exercised every backend and agreed throughout, so
        // their lifetime counters must line up exactly.
        assert_eq!(
            counters(sequential.stats()),
            counters(sharded.stats()),
            "k={k}"
        );
        assert!(sharded.stats().plans(Plan::BruteForce) > 0, "k={k}");
        assert!(sharded.stats().plans(Plan::Obdd) > 0, "k={k}");
        if k >= 2 {
            assert!(sharded.stats().plans(Plan::DdCircuit) > 0, "k={k}");
        }
    }
}

/// Shard counts are a performance knob, never a semantics knob: every
/// shard count (including degenerate ones) returns the same bits.
#[test]
fn shard_count_never_changes_the_answer() {
    let mut rng = StdRng::seed_from_u64(77);
    let base = uniform_tid(complete_database(3, 2), half());
    let scenarios = reweighted_scenarios(&base, 13, &mut rng);
    let q = HQuery::new(phi9());
    let mut sequential = PqeEngine::new();
    let expected = evaluate_each(&mut sequential, &q, &scenarios);
    for shards in [0, 1, 2, 4, 8, 13, 1000] {
        let mut engine = PqeEngine::new();
        let got = engine
            .evaluate_batch_sharded(&q, &scenarios, shards)
            .unwrap();
        assert_eq!(got, expected, "shards={shards}");
        let batch = engine.stats().last_batch.unwrap();
        assert_eq!(batch.scenarios, 13);
        assert!(
            batch.shards >= 1 && batch.shards <= 13,
            "requested {shards}, spawned {}",
            batch.shards
        );
    }
}

/// Merged per-shard stats equal the sequential totals: same query count,
/// same hit/miss/eviction split, same per-plan routing — and the
/// amortization story (one compile, N − 1 shared walks) is visible in
/// both the counters and the recorded `BatchPlan`.
#[test]
fn merged_shard_stats_equal_sequential_totals() {
    let mut rng = StdRng::seed_from_u64(4096);
    let base = uniform_tid(complete_database(3, 2), half());
    let scenarios = reweighted_scenarios(&base, 24, &mut rng);
    let q = HQuery::new(phi9());

    let mut sequential = PqeEngine::new();
    evaluate_each(&mut sequential, &q, &scenarios);
    let mut sharded = PqeEngine::new();
    sharded.evaluate_batch_sharded(&q, &scenarios, 4).unwrap();

    assert_eq!(counters(sequential.stats()), counters(sharded.stats()));
    assert_eq!(sharded.stats().queries, 24);
    assert_eq!(sharded.stats().cache_misses, 1, "one compile for the batch");
    assert_eq!(sharded.stats().cache_hits, 23);
    // The sequential engine records per-query `last`; the sharded one
    // must too (the last scenario of the last shard).
    assert!(sharded.stats().last.is_some());
    let batch = sharded.stats().last_batch.unwrap();
    assert_eq!((batch.compiles, batch.shared), (1, 23));
    assert_eq!(batch.shards, 4);
    assert!(sequential.stats().last_batch.is_none());
}

/// The LRU story end to end through the engine: exactly-at-budget fits,
/// one artifact over evicts exactly the least-recently-used entry, the
/// next access to the victim recompiles, the budget is never exceeded,
/// and `cache_misses = distinct shapes + recompiles after eviction`.
#[test]
fn lru_evicts_the_least_recently_used_at_budget_and_recompiles() {
    let q = HQuery::new(phi9());
    // Three database shapes; artifact size grows with the domain, so
    // `tiny`'s artifact is the smallest.
    let mid = uniform_tid(complete_database(3, 2), half());
    let big = uniform_tid(complete_database(3, 3), half());
    let tiny = uniform_tid(complete_database(3, 1), half());

    // Probe the artifact sizes with an unbounded engine.
    let mut probe = PqeEngine::new();
    probe.evaluate(&q, &mid).unwrap();
    let mid_gates = probe.cache_gates();
    probe.evaluate(&q, &big).unwrap();
    let budget = probe.cache_gates(); // mid + big exactly
    probe.evaluate(&q, &tiny).unwrap();
    let tiny_gates = probe.cache_gates() - budget;
    assert!(tiny_gates < mid_gates, "sizes must grow with the domain");

    let mut engine = PqeEngine::with_config(EngineConfig {
        cache_gate_budget: Some(budget),
        ..EngineConfig::default()
    });
    engine.evaluate(&q, &mid).unwrap();
    engine.evaluate(&q, &big).unwrap();
    assert_eq!(engine.cache_gates(), budget, "exactly at budget");
    assert_eq!(engine.stats().cache_evictions, 0, "at budget ⟹ no eviction");

    // Touch `mid` so `big` becomes the least recently used...
    engine.evaluate(&q, &mid).unwrap();
    // ...then overflow with `tiny`: exactly `big` must be evicted.
    engine.evaluate(&q, &tiny).unwrap();
    assert!(engine.cache_gates() <= budget, "budget is a hard bound");
    assert_eq!(engine.stats().cache_evictions, 1);
    assert_eq!(engine.cache_len(), 2);
    assert!(engine.explain(&q, &mid).cached, "recently used survives");
    assert!(engine.explain(&q, &tiny).cached, "fresh insert survives");
    assert!(!engine.explain(&q, &big).cached, "LRU victim is gone");

    // The victim recompiles on next access — a fresh cache miss.
    let misses_before = engine.stats().cache_misses;
    engine.evaluate(&q, &big).unwrap();
    assert_eq!(engine.stats().cache_misses, misses_before + 1);
    assert!(engine.cache_gates() <= budget);

    // Reconciliation: every miss is either a distinct shape's first
    // compile or a post-eviction recompile.
    let distinct_shapes = 3;
    let recompiles_after_eviction = 1;
    assert_eq!(
        engine.stats().cache_misses,
        distinct_shapes + recompiles_after_eviction
    );
    assert_eq!(
        engine.stats().cache_evictions,
        2,
        "re-inserting big evicted again"
    );
}

/// A budget-constrained engine stays bit-identical under sharding even
/// when the batch itself thrashes the cache (interleaved shapes, budget
/// holding only one artifact at a time): precompute mirrors the
/// sequential access order, so hits, misses, and evictions all agree.
#[test]
fn tight_budget_sharded_batch_is_still_bit_identical() {
    let q = HQuery::new(phi9());
    let shape_a = uniform_tid(complete_database(3, 1), half());
    let shape_b = uniform_tid(complete_database(3, 2), half());
    // A B A B A B: worst case for an LRU that can hold only one.
    let scenarios: Vec<Tid> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                shape_a.clone()
            } else {
                shape_b.clone()
            }
        })
        .collect();
    let config = EngineConfig {
        // Big enough for either artifact alone, never for both.
        cache_gate_budget: Some({
            let mut probe = PqeEngine::new();
            probe.evaluate(&q, &shape_b).unwrap();
            probe.cache_gates()
        }),
        ..EngineConfig::default()
    };

    let mut sequential = PqeEngine::with_config(config);
    let expected = evaluate_each(&mut sequential, &q, &scenarios);
    let mut sharded = PqeEngine::with_config(config);
    let got = sharded.evaluate_batch_sharded(&q, &scenarios, 3).unwrap();

    assert_eq!(got, expected);
    assert_eq!(counters(sequential.stats()), counters(sharded.stats()));
    // Every evaluation of either shape misses: the other evaluation
    // always evicted it in between.
    assert_eq!(sharded.stats().cache_misses, 6);
    assert_eq!(sharded.stats().cache_evictions, 5);
    assert!(sharded.cache_gates() <= sharded.cache_budget().unwrap());
}
