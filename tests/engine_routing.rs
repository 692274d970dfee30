//! Routing and caching guarantees of the `PqeEngine` front door:
//!
//! * every Figure 1 region maps to a sound plan (or an explicit refusal),
//! * the engine's answer equals brute force for **all** `φ` with `k ≤ 2`
//!   on randomized small TIDs, across every H-query backend,
//! * cache hits return bit-identical `BigRational`s and never recompile.

use intext::boolfn::{max_euler_fn, phi9, phi_no_pm, threshold_fn, BoolFn};
use intext::core::{classify, Region};
use intext::engine::{EngineError, Plan, PqeEngine};
use intext::numeric::BigRational;
use intext::query::{pqe_brute_force, HQuery};
use intext::tid::{
    complete_database, random_database, random_tid, uniform_tid, DbGenConfig, TupleId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn half() -> BigRational {
    BigRational::from_ratio(1, 2)
}

/// (a) Exhaustive at `k = 2`: every region maps to the plan the routing
/// table promises, and the mapping is total on small instances.
#[test]
fn every_region_maps_to_a_sound_plan() {
    let engine = PqeEngine::new();
    // complete_database(2, 2) has 12 tuples, within the default budget.
    let tid = uniform_tid(complete_database(2, 2), half());
    for table in 0..256u64 {
        let phi = BoolFn::from_table_u64(3, table);
        let region = classify(&phi);
        let plan = engine.plan(HQuery::new(phi), &tid);
        let expected = match region {
            Region::DegenerateObdd => Plan::Obdd,
            Region::ZeroEulerDD => Plan::DdCircuit,
            Region::HardMonotone | Region::HardByTransfer | Region::ConjecturedHard => {
                Plan::BruteForce
            }
            // classify() is defined on φ; the general-query regions
            // never come out of it.
            Region::SafeLifted | Region::GroundCircuit => {
                unreachable!("classify is H-only")
            }
        };
        assert_eq!(plan, Ok(expected), "table {table:#x} in {region:?}");
    }
}

/// (a) continued: named functions at `k = 3` land where Figure 1 says,
/// and the hard ones are refused once the instance outgrows the budget.
#[test]
fn named_functions_route_per_figure_1() {
    let engine = PqeEngine::new();
    let small = uniform_tid(complete_database(3, 1), half());
    let cases = [
        (BoolFn::var(4, 0), Plan::Obdd),        // degenerate h_{3,0}
        (threshold_fn(4, 0), Plan::Obdd),       // ⊤ is degenerate
        (phi9(), Plan::DdCircuit),              // safe, e = 0
        (threshold_fn(4, 1), Plan::BruteForce), // hard monotone
        (max_euler_fn(4), Plan::BruteForce),    // conjectured hard
    ];
    for (phi, expected) in cases {
        assert_eq!(
            engine.plan(HQuery::new(phi.clone()), &small),
            Ok(expected),
            "{phi:?}"
        );
    }
    // phi_no_pm is the paper's non-monotone zero-Euler witness at k = 4.
    let small4 = uniform_tid(complete_database(4, 1), half());
    assert_eq!(
        engine.plan(HQuery::new(phi_no_pm()), &small4),
        Ok(Plan::DdCircuit)
    );
    // Beyond the brute-force budget, hard queries are refused loudly.
    let big = uniform_tid(complete_database(3, 4), half());
    match engine.plan(HQuery::new(max_euler_fn(4)), &big) {
        Err(EngineError::Intractable { region, tuples, .. }) => {
            assert_eq!(region, Region::ConjecturedHard);
            assert_eq!(tuples, big.len());
        }
        other => panic!("expected Intractable, got {other:?}"),
    }
}

/// (b) The engine equals brute force for **every** Boolean function with
/// `k ≤ 2` on randomized small TIDs — the planner may pick any backend,
/// the answer must not depend on it.
#[test]
fn engine_matches_brute_force_for_all_small_phi() {
    let mut rng = StdRng::seed_from_u64(2020);
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
        let tid = random_tid(db, 6, &mut rng);
        let mut engine = PqeEngine::new();
        let n = k + 1;
        for table in 0..(1u64 << (1u32 << n)) {
            let phi = BoolFn::from_table_u64(n, table);
            let q = HQuery::new(phi);
            let via_engine = engine.evaluate(&q, &tid).unwrap();
            let via_brute = pqe_brute_force(&q, &tid).unwrap();
            assert_eq!(via_engine, via_brute, "k={k}, table {table:#x}");
        }
        // Sanity: the sweep exercised compiled plans, not just brute force.
        // (At k = 1 every zero-Euler function is degenerate, so the d-D
        // region is only populated from k = 2 on.)
        assert!(engine.stats().plans(Plan::Obdd) > 0, "k={k}");
        assert!(engine.stats().plans(Plan::BruteForce) > 0, "k={k}");
        if k >= 2 {
            assert!(engine.stats().plans(Plan::DdCircuit) > 0, "k={k}");
        }
    }
}

/// (c) Cache hits return bit-identical `BigRational`s, and re-weighted
/// evaluations reuse the artifact without recompiling.
#[test]
fn cache_hits_are_bit_identical_and_never_recompile() {
    let mut engine = PqeEngine::new();
    let q = HQuery::new(phi9());
    let mut tid = uniform_tid(complete_database(3, 2), BigRational::from_ratio(3, 7));

    let cold = engine.evaluate(&q, &tid).unwrap();
    assert_eq!(engine.stats().cache_misses, 1);
    let warm = engine.evaluate(&q, &tid).unwrap();
    assert_eq!(engine.stats().cache_hits, 1);
    assert_eq!(cold, warm, "hit must be bit-identical to the miss");

    // Re-weight every tuple: still one artifact, zero recompilations.
    for (i, _) in tid.database().clone().iter() {
        tid.set_prob(i, BigRational::from_ratio(1 + i64::from(i.0), 100))
            .unwrap();
    }
    let reweighted = engine.evaluate(&q, &tid).unwrap();
    assert_eq!(engine.stats().cache_misses, 1, "no recompilation");
    assert_eq!(engine.stats().cache_hits, 2);
    assert_eq!(engine.cache_len(), 1);
    assert_eq!(reweighted, pqe_brute_force(&q, &tid).unwrap());
    // Evaluating the same scenario again reproduces it bit-for-bit.
    assert_eq!(reweighted, engine.evaluate(&q, &tid).unwrap());
}

/// A one-shard batch amortizes one compilation across a workload of
/// probability scenarios on the same database shape.
#[test]
fn batch_evaluation_amortizes_compilation() {
    let mut engine = PqeEngine::new();
    let q = HQuery::new(phi9());
    let base = uniform_tid(complete_database(3, 2), half());
    let scenarios: Vec<_> = (0..5u32)
        .map(|s| {
            let mut tid = base.clone();
            tid.set_prob(TupleId(s), BigRational::from_ratio(1, u64::from(s) + 3))
                .unwrap();
            tid
        })
        .collect();
    let probs = engine.evaluate_batch_sharded(&q, &scenarios, 1).unwrap();
    assert_eq!(probs.len(), 5);
    assert_eq!(engine.stats().cache_misses, 1, "one compile for the batch");
    assert_eq!(engine.stats().cache_hits, 4);
    for (p, tid) in probs.iter().zip(&scenarios) {
        assert_eq!(p, &pqe_brute_force(&q, tid).unwrap());
    }
}

/// `explain` narrates the decision and tracks cache state transitions.
#[test]
fn explain_is_inspectable() {
    let mut engine = PqeEngine::new();
    let q = HQuery::new(phi9());
    let tid = uniform_tid(complete_database(3, 1), half());

    let cold = engine.explain(&q, &tid);
    assert_eq!(cold.region, Region::ZeroEulerDD);
    assert_eq!(cold.plan, Ok(Plan::DdCircuit));
    assert!(!cold.cached);
    assert!(cold.to_string().contains("d-D pipeline"), "{cold}");

    engine.evaluate(&q, &tid).unwrap();
    let warm = engine.explain(&q, &tid);
    assert!(warm.cached);
    assert!(warm.to_string().contains("cached"), "{warm}");

    // Refusals are narrated too.
    let big = uniform_tid(complete_database(3, 4), half());
    let refused = engine.explain(HQuery::new(max_euler_fn(4)), &big);
    assert!(refused.plan.is_err());
    assert!(refused.to_string().contains("no sound plan"), "{refused}");
}
