//! The lane-batched evaluation kernel, end to end through the engine:
//!
//! * `evaluate_batch_sharded_f64` on one and on several shards is
//!   **bit-identical** to a per-scenario `evaluate_f64` loop for every
//!   Boolean function with `k ≤ 2` on randomized TIDs — both artifact
//!   kinds (OBDD and d-D) and the brute-force fallback included,
//! * ragged batch sizes (tails that do not fill a `LANES`-wide block)
//!   never change the bits, via a proptest sweep,
//! * the compile-vs-walk timing split and the lane-kernel invocation
//!   counter make the batching observable.
//!
//! The kernel's own unit tests (including the deep-chain recursion-safety
//! test and the counting-allocator zero-allocation test) live in
//! `crates/circuits`.

use intext::boolfn::BoolFn;
use intext::circuits::LANES;
use intext::engine::{Plan, PqeEngine};
use intext::numeric::BigRational;
use intext::query::HQuery;
use intext::tid::{
    complete_database, random_database, random_tid, uniform_tid, DbGenConfig, Tid, TupleId,
};
use proptest::prelude::*;
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

/// The counter halves of two `EngineStats` (wall-clock durations and the
/// path-specific kernel-call counter legitimately differ between runs).
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

/// Lane-batched ≡ scalar loop, bit for bit, for **all** 272 Boolean
/// functions with `k ≤ 2` (16 at k = 1, 256 at k = 2) on randomized
/// TIDs — every backend flows through the batch paths: OBDD and d-D
/// artifacts through the kernel, brute force through the scalar
/// fallback.
#[test]
fn lane_batched_equals_scalar_loop_for_all_small_phi() {
    let mut rng = StdRng::seed_from_u64(2121);
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
        // LANES + 3 scenarios: at least one full block plus a ragged tail.
        let scenarios = reweighted_scenarios(&base, LANES + 3, &mut rng);
        let mut scalar = PqeEngine::new();
        let mut lane = PqeEngine::new();
        let mut sharded = PqeEngine::new();
        let n = k + 1;
        for table in 0..(1u64 << (1u32 << n)) {
            let phi = BoolFn::from_table_u64(n, table);
            let q = HQuery::new(phi);
            let expected: Vec<f64> = scenarios
                .iter()
                .map(|tid| scalar.evaluate_f64(&q, tid).unwrap())
                .collect();
            let batched = lane.evaluate_batch_sharded_f64(&q, &scenarios, 1).unwrap();
            assert_eq!(batched, expected, "k={k}, table {table:#x} (sequential)");
            let fanned = sharded
                .evaluate_batch_sharded_f64(&q, &scenarios, 3)
                .unwrap();
            assert_eq!(fanned, expected, "k={k}, table {table:#x} (sharded)");
        }
        // Identical answers all along, so the lifetime counters of all
        // three engines must line up exactly.
        assert_eq!(counters(scalar.stats()), counters(lane.stats()), "k={k}");
        assert_eq!(counters(scalar.stats()), counters(sharded.stats()), "k={k}");
        // The sweeps exercised compiled artifacts through the kernel
        // (not just the scalar fallback), and the scalar engine never
        // touched it.
        assert_eq!(scalar.stats().lane_kernel_calls, 0, "k={k}");
        assert!(lane.stats().lane_kernel_calls > 0, "k={k}");
        assert!(sharded.stats().lane_kernel_calls > 0, "k={k}");
        assert!(lane.stats().plans(Plan::BruteForce) > 0, "k={k}");
        assert!(lane.stats().plans(Plan::Obdd) > 0, "k={k}");
        if k >= 2 {
            assert!(lane.stats().plans(Plan::DdCircuit) > 0, "k={k}");
        }
    }
}

/// The split timers and kernel counter expose the batching: compiling
/// happens once, walking dominates thereafter, and the number of kernel
/// invocations is exactly `ceil(scenarios / LANES)` per one-shape batch.
#[test]
fn timing_split_and_kernel_calls_are_observable() {
    let mut rng = StdRng::seed_from_u64(31);
    let base = uniform_tid(complete_database(3, 2), half());
    let scenarios = reweighted_scenarios(&base, 3 * LANES + 1, &mut rng);
    let q = HQuery::new(intext::boolfn::phi9());
    let mut engine = PqeEngine::new();
    engine
        .evaluate_batch_sharded_f64(&q, &scenarios, 1)
        .unwrap();
    let stats = engine.stats();
    assert_eq!(stats.lane_kernel_calls, 4, "ceil(25 / 8) blocks");
    assert_eq!(stats.cache_misses, 1);
    assert!(stats.compile_nanos() > 0, "the one compile was timed");
    assert!(stats.walk_nanos > 0, "the walks were timed");
    assert_eq!(
        stats.compile_nanos(),
        u64::try_from(stats.compile_time.as_nanos()).unwrap(),
        "the nanos mirror the aggregate duration"
    );
    let shown = stats.to_string();
    assert!(shown.contains("lane-kernel"), "{shown}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ragged batches — any size from empty through several blocks, over
    /// both artifact kinds — stay bit-identical to the scalar loop and
    /// return one probability per scenario.
    #[test]
    fn ragged_batches_are_bit_identical(
        count in 0usize..(3 * LANES + 2),
        degenerate in any::<bool>(),
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = uniform_tid(complete_database(3, 1), half());
        let scenarios = reweighted_scenarios(&base, count, &mut rng);
        // Degenerate φ compiles an OBDD artifact, φ9 a d-D circuit.
        let phi = if degenerate {
            BoolFn::var(4, 0)
        } else {
            intext::boolfn::phi9()
        };
        let q = HQuery::new(phi);
        let mut scalar = PqeEngine::new();
        let expected: Vec<f64> = scenarios
            .iter()
            .map(|tid| scalar.evaluate_f64(&q, tid).unwrap())
            .collect();
        let mut lane = PqeEngine::new();
        let batched = lane.evaluate_batch_sharded_f64(&q, &scenarios, 1).unwrap();
        prop_assert_eq!(&batched, &expected);
        let mut fanned = PqeEngine::new();
        let sharded = fanned.evaluate_batch_sharded_f64(&q, &scenarios, shards).unwrap();
        prop_assert_eq!(&sharded, &expected);
        prop_assert_eq!(batched.len(), count);
        if count > 0 {
            let expected_calls = count.div_ceil(LANES) as u64;
            prop_assert_eq!(lane.stats().lane_kernel_calls, expected_calls);
        }
    }
}
