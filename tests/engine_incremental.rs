//! Differential update-stream harness for incremental artifact
//! maintenance ([`PqeEngine::insert_tuple`] / [`PqeEngine::remove_tuple`]
//! / [`PqeEngine::set_probability`], DESIGN.md §9).
//!
//! The engine's claim is strong: after *any* stream of live tuple
//! updates, a patched engine is indistinguishable from one that
//! recompiled everything from scratch — same exact rationals, same f64
//! bits, same serialized artifact bytes. This harness proves it
//! differentially. Each proptest case derives a random stream of
//! insert / delete / reweight operations from one seed and, after
//! **every** step, checks three evaluators against each other for *all*
//! 272 Boolean functions with `k ≤ 2` (16 on two variables, 256 on
//! three):
//!
//! 1. the **live** engine, which has only ever been patched;
//! 2. a **fresh** engine compiled from nothing on the current instance;
//! 3. an independent **witness-mask oracle**: one pass over the `2^n`
//!    possible worlds accumulates `P[mask]`, the probability that the
//!    `h_{k,i}` truth vector equals each `mask ∈ {0,1}^{k+1}`; the
//!    answer for any `φ` is then `Σ_{φ(mask)} P[mask]`, a dot product.
//!    The oracle never touches engine code (it is built from
//!    [`h_witnesses`] + [`Tid::world_probability`]) and is itself
//!    spot-checked against [`pqe_brute_force`] on a rotating function
//!    each step.
//!
//! Named `k = 3` (φ9, a degenerate variable function, φ_max-Euler) and
//! `k = 4` (φ_no-PM) functions run the same stream discipline, and two
//! further tests pin the interactions the issue calls out: patched
//! engines must shard/batch bit-identically, and patched caches must
//! survive `save_cache`/`load_cache` and `export_delta`/`apply_delta`
//! round trips.
//!
//! [`PqeEngine::insert_tuple`]: intext_engine::PqeEngine::insert_tuple
//! [`PqeEngine::remove_tuple`]: intext_engine::PqeEngine::remove_tuple
//! [`PqeEngine::set_probability`]: intext_engine::PqeEngine::set_probability
//! [`Tid::world_probability`]: intext_tid::Tid::world_probability

mod common;

use intext_boolfn::{max_euler_fn, phi9, phi_no_pm, BoolFn};
use intext_engine::{PqeEngine, TupleUpdate};
use intext_numeric::BigRational;
use intext_query::{h_witnesses, pqe_brute_force, HQuery};
use intext_tid::{Database, Tid, TupleDesc, TupleId};
use proptest::prelude::*;

/// Stream length cap: at most `2^7 = 128` possible worlds keeps the
/// per-step brute-force sweeps over all 272 functions fast in debug
/// builds while still exercising every slot shape.
const TUPLE_CAP: usize = 7;

/// Update steps per proptest case; every step re-checks all functions.
const STEPS: usize = 4;

/// Cases per property: a deeper sweep when the CI seed knob
/// (`INTEXT_TEST_SEEDS`, see `tests/common/mod.rs` and DESIGN.md §8) asks
/// for the full statistical corpus, a fast one locally.
fn stream_cases() -> u32 {
    if common::seed_count() > common::DEFAULT_SEEDS {
        8
    } else {
        4
    }
}

/// SplitMix64: the whole op stream of a case derives from the one `u64`
/// proptest draws, so a failure reproduces from its printed case alone.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random probability with small denominator — includes the 0 and 1
/// endpoints, which stress the absorbing cases of the circuit walks.
fn rational(state: &mut u64) -> BigRational {
    let den = 1 + mix(state) % 6;
    let num = mix(state) % (den + 1);
    BigRational::from_ratio(num as i64, den)
}

/// Every tuple the vocabulary `(k, domain)` admits.
fn universe(k: u8, domain: u32) -> Vec<TupleDesc> {
    let mut all = Vec::new();
    for a in 0..domain {
        all.push(TupleDesc::R(a));
    }
    for i in 1..=k {
        for a in 0..domain {
            for b in 0..domain {
                all.push(TupleDesc::S(i, a, b));
            }
        }
    }
    for b in 0..domain {
        all.push(TupleDesc::T(b));
    }
    all
}

/// A random sub-instance of the complete `(k, domain)` database with
/// random probabilities, never empty and never above `cap` tuples.
fn random_tid(state: &mut u64, k: u8, domain: u32, cap: usize) -> Tid {
    let mut tid = Tid::new(Database::new(k, domain), Vec::new()).unwrap();
    let all = universe(k, domain);
    for &t in &all {
        if tid.len() < cap && mix(state).is_multiple_of(2) {
            let p = rational(state);
            tid.insert(t, p).unwrap();
        }
    }
    if tid.is_empty() {
        let p = rational(state);
        tid.insert(all[0], p).unwrap();
    }
    tid
}

/// One live update, as drawn by [`random_op`].
enum Op {
    Insert(TupleDesc, BigRational),
    Remove(TupleId),
    Reweight(TupleId, BigRational),
}

/// Draws the next stream op: insert-biased (half the rolls) so instances
/// stay interesting, but never above `cap` tuples and never removing
/// from an empty instance.
fn random_op(state: &mut u64, tid: &Tid, all: &[TupleDesc], cap: usize) -> Op {
    let present: Vec<TupleId> = tid.database().iter().map(|(id, _)| id).collect();
    let absent: Vec<TupleDesc> = all
        .iter()
        .copied()
        .filter(|t| !tid.database().iter().any(|(_, have)| have == *t))
        .collect();
    let can_insert = !absent.is_empty() && tid.len() < cap;
    let roll = mix(state) % 4;
    if present.is_empty() || (can_insert && roll < 2) {
        let t = absent[(mix(state) as usize) % absent.len()];
        let p = rational(state);
        Op::Insert(t, p)
    } else if roll == 2 {
        Op::Remove(present[(mix(state) as usize) % present.len()])
    } else {
        let id = present[(mix(state) as usize) % present.len()];
        let p = rational(state);
        Op::Reweight(id, p)
    }
}

/// Applies one op through the engine's live-update API (so the engine
/// patches its cache) and mirrors it into `tid`.
fn apply_op(live: &mut PqeEngine, tid: &mut Tid, op: &Op) {
    match op {
        Op::Insert(desc, p) => {
            live.insert_tuple(tid, *desc, p.clone()).unwrap();
        }
        Op::Remove(id) => {
            live.remove_tuple(tid, *id).unwrap();
        }
        Op::Reweight(id, p) => {
            live.set_probability(tid, *id, p.clone()).unwrap();
        }
    }
}

/// The witness-mask distribution `mask ↦ P[h-truth-vector = mask]`: one
/// brute-force pass over the possible worlds, independent of all engine
/// code. Indexed by mask; entries sum to 1.
fn mask_distribution(tid: &Tid) -> Vec<BigRational> {
    let db = tid.database();
    let witness_masks: Vec<Vec<u64>> = (0..=db.k())
        .map(|i| {
            h_witnesses(db, i)
                .iter()
                .map(|&(t1, t2)| (1u64 << t1.0) | (1u64 << t2.0))
                .collect()
        })
        .collect();
    let mut dist = vec![BigRational::zero(); 1 << (db.k() + 1)];
    for world in 0..(1u64 << db.len()) {
        let mut mask = 0usize;
        for (i, pairs) in witness_masks.iter().enumerate() {
            let covered = |m: u64| world & m == m;
            if pairs.iter().any(|&m| covered(m)) {
                mask |= 1 << i;
            }
        }
        dist[mask] = &dist[mask] + &tid.world_probability(world);
    }
    dist
}

/// `P(Q_φ)` from the mask distribution: `Σ_{mask : φ(mask)} P[mask]`.
fn oracle_answer(phi: &BoolFn, dist: &[BigRational]) -> BigRational {
    dist.iter()
        .enumerate()
        .filter(|&(mask, _)| phi.eval(mask as u32))
        .fold(BigRational::zero(), |acc, (_, p)| &acc + p)
}

/// Checks live vs fresh vs oracle for one function on the current
/// instance: exact rationals on both engines, f64 bits across engines.
fn check_function(
    phi: &BoolFn,
    live: &mut PqeEngine,
    fresh: &mut PqeEngine,
    tid: &Tid,
    dist: &[BigRational],
    context: &str,
) {
    let q = HQuery::new(phi.clone());
    let expected = oracle_answer(phi, dist);
    let live_p = live.evaluate(&q, tid).unwrap();
    assert_eq!(live_p, expected, "{context}: patched engine vs oracle");
    let fresh_p = fresh.evaluate(&q, tid).unwrap();
    assert_eq!(live_p, fresh_p, "{context}: patched vs fresh compile");
    let live_bits = live.evaluate_f64(&q, tid).unwrap().to_bits();
    let fresh_bits = fresh.evaluate_f64(&q, tid).unwrap().to_bits();
    assert_eq!(live_bits, fresh_bits, "{context}: f64 bit identity");
}

/// After a stream, every artifact the live engine still holds for the
/// current shape must serialize byte-identically to a fresh compile —
/// patching may never leave a structurally different (even if
/// semantically equal) circuit behind. Returns how many were compared.
fn assert_artifacts_byte_identical(live: &PqeEngine, tid: &Tid, fns: &[BoolFn]) -> usize {
    let mut fresh = PqeEngine::new();
    let mut compared = 0;
    for phi in fns {
        let q = HQuery::new(phi.clone());
        if let Ok(patched_bytes) = live.export_artifact(&q, tid.database()) {
            fresh.evaluate(&q, tid).unwrap();
            let fresh_bytes = fresh.export_artifact(&q, tid.database()).unwrap();
            assert_eq!(
                patched_bytes,
                fresh_bytes,
                "patched artifact for φ table {:#x} is not byte-identical",
                phi.table_u64()
            );
            compared += 1;
        }
    }
    compared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stream_cases()))]

    /// The main differential property: random update streams on k = 1
    /// and k = 2 instances, every step checked for all 272 functions.
    #[test]
    fn update_streams_match_fresh_compiles_and_oracle(seed in any::<u64>()) {
        for k in 1u8..=2 {
            let mut state = seed ^ u64::from(k);
            let all = universe(k, 2);
            let mut tid = random_tid(&mut state, k, 2, TUPLE_CAP);
            let tables: u64 = 1 << (1u64 << (k + 1));
            let fns: Vec<BoolFn> =
                (0..tables).map(|t| BoolFn::from_table_u64(k + 1, t)).collect();

            // Warm the live engine so the stream patches real artifacts.
            let mut live = PqeEngine::new();
            for phi in &fns {
                live.evaluate(HQuery::new(phi.clone()), &tid).unwrap();
            }

            let mut structural = false;
            for step in 0..STEPS {
                let op = random_op(&mut state, &tid, &all, TUPLE_CAP);
                structural |= matches!(op, Op::Insert(..) | Op::Remove(..));
                apply_op(&mut live, &mut tid, &op);

                let dist = mask_distribution(&tid);
                let total = dist
                    .iter()
                    .fold(BigRational::zero(), |acc, p| &acc + p);
                prop_assert!(total.is_one(), "mask distribution must sum to 1");

                let mut fresh = PqeEngine::new();
                for phi in &fns {
                    let context = format!(
                        "k={k} step={step} φ table {:#x}",
                        phi.table_u64()
                    );
                    check_function(phi, &mut live, &mut fresh, &tid, &dist, &context);
                }

                // Cross-validate the oracle itself against the reference
                // brute-force evaluator on one rotating function.
                let spot = &fns[(mix(&mut state) % tables) as usize];
                let q = HQuery::new(spot.clone());
                prop_assert_eq!(
                    pqe_brute_force::<BigRational>(&q, &tid).unwrap(),
                    oracle_answer(spot, &dist),
                    "oracle disagrees with pqe_brute_force at k={} step={}", k, step
                );
            }

            let compared = assert_artifacts_byte_identical(&live, &tid, &fns);
            prop_assert!(compared > 0, "no cacheable artifact survived the stream");
            if structural {
                prop_assert!(
                    live.stats().patches_applied > 0,
                    "structural ops must exercise the patch path"
                );
            }
        }
    }
}

/// The named larger-`k` functions from the paper ride the same stream
/// discipline: φ9 (k = 3, the d-D flagship), a degenerate variable
/// function (OBDD route), φ_max-Euler (hard region, brute-forced), and
/// φ_no-PM (k = 4, zero Euler characteristic). Oracle here is
/// `pqe_brute_force` directly — few functions, so no need for the mask
/// distribution.
#[test]
fn named_k3_and_k4_functions_survive_update_streams() {
    let cases: [(u8, u32, Vec<BoolFn>); 2] = [
        (3, 2, vec![phi9(), BoolFn::var(4, 0), max_euler_fn(4)]),
        (4, 1, vec![phi_no_pm(), BoolFn::var(5, 0)]),
    ];
    for (k, domain, fns) in cases {
        let mut state = 0xFEED ^ (u64::from(k) << 8) ^ u64::from(domain);
        let all = universe(k, domain);
        let cap = TUPLE_CAP.min(all.len());
        let mut tid = random_tid(&mut state, k, domain, cap);

        let mut live = PqeEngine::new();
        for phi in &fns {
            live.evaluate(HQuery::new(phi.clone()), &tid).unwrap();
        }

        let mut structural = false;
        for step in 0..10 {
            let op = random_op(&mut state, &tid, &all, cap);
            structural |= matches!(op, Op::Insert(..) | Op::Remove(..));
            apply_op(&mut live, &mut tid, &op);

            let mut fresh = PqeEngine::new();
            for phi in &fns {
                let q = HQuery::new(phi.clone());
                let reference = pqe_brute_force(&q, &tid).unwrap();
                let live_p = live.evaluate(&q, &tid).unwrap();
                assert_eq!(live_p, reference, "k={k} step={step}: live vs brute force");
                let fresh_p = fresh.evaluate(&q, &tid).unwrap();
                assert_eq!(live_p, fresh_p, "k={k} step={step}: patched vs fresh");
                assert_eq!(
                    live.evaluate_f64(&q, &tid).unwrap().to_bits(),
                    fresh.evaluate_f64(&q, &tid).unwrap().to_bits(),
                    "k={k} step={step}: f64 bit identity"
                );
            }
        }

        let compared = assert_artifacts_byte_identical(&live, &tid, &fns);
        assert!(
            compared >= 2,
            "k={k}: the OBDD and d-D artifacts must be cacheable"
        );
        assert!(
            structural,
            "ten insert-biased steps always include a structural op"
        );
        assert!(
            live.stats().patches_applied > 0,
            "k={k}: structural ops must exercise the patch path"
        );
    }
}

/// Patch-then-shard invariance: after live updates, the batch paths —
/// sequential, sharded, and the f64 lane kernel — must all agree with
/// each other and with brute force on every scenario, exactly as they
/// would on a freshly compiled engine.
#[test]
fn patched_engines_shard_and_batch_identically() {
    let mut state = 0xC0FFEE;
    let q = HQuery::new(phi9());
    let mut tid = random_tid(&mut state, 3, 2, 8);
    let mut live = PqeEngine::new();
    live.evaluate(&q, &tid).unwrap();

    // Deterministic structural churn: remove a tuple, put it back, then
    // grow the instance by one — three patches of the cached circuit.
    let (desc, p) = live.remove_tuple(&mut tid, TupleId(0)).unwrap();
    live.insert_tuple(&mut tid, desc, p).unwrap();
    if let Some(&fresh_tuple) = universe(3, 2)
        .iter()
        .find(|t| !tid.database().iter().any(|(_, have)| have == **t))
    {
        let p = rational(&mut state);
        live.insert_tuple(&mut tid, fresh_tuple, p).unwrap();
    }
    assert!(
        live.stats().patches_applied >= 1,
        "the φ9 circuit must patch across single-tuple churn"
    );

    let scenarios: Vec<Tid> = (0..12)
        .map(|_| {
            let mut scenario = tid.clone();
            for id in 0..scenario.len() as u32 {
                let p = rational(&mut state);
                scenario.set_prob(TupleId(id), p).unwrap();
            }
            scenario
        })
        .collect();

    let sequential = live.evaluate_batch_sharded(&q, &scenarios, 1).unwrap();
    let sharded = live.evaluate_batch_sharded(&q, &scenarios, 3).unwrap();
    assert_eq!(
        sequential, sharded,
        "sharded exact batch must be bit-identical"
    );
    for (scenario, answer) in scenarios.iter().zip(&sequential) {
        assert_eq!(
            answer,
            &pqe_brute_force(&q, scenario).unwrap(),
            "batch answer vs brute force"
        );
    }

    let sequential_f64: Vec<u64> = live
        .evaluate_batch_sharded_f64(&q, &scenarios, 1)
        .unwrap()
        .into_iter()
        .map(f64::to_bits)
        .collect();
    let sharded_f64: Vec<u64> = live
        .evaluate_batch_sharded_f64(&q, &scenarios, 4)
        .unwrap()
        .into_iter()
        .map(f64::to_bits)
        .collect();
    assert_eq!(
        sequential_f64, sharded_f64,
        "lane-kernel shards must be bit-identical"
    );
}

/// Patch-then-persist invariance: a patched cache round-trips through
/// `save_cache`/`load_cache`, and a serialized delta patches a warm
/// replica to the same bits as the source.
#[test]
fn patched_caches_round_trip_through_store_and_deltas() {
    let mut state = 0xBEEF;
    let fns = [phi9(), BoolFn::var(4, 0)];
    let mut tid = random_tid(&mut state, 3, 2, 8);

    let mut live = PqeEngine::new();
    let mut replica = PqeEngine::new();
    for phi in &fns {
        live.evaluate(HQuery::new(phi.clone()), &tid).unwrap();
        replica.evaluate(HQuery::new(phi.clone()), &tid).unwrap();
    }

    // Ship one update as a delta: export against the *pre-update* shape,
    // apply locally, then let the replica patch itself from the blob.
    let update = TupleUpdate::Remove { id: 0 };
    let delta = live
        .export_delta(&HQuery::new(phi9()), tid.database(), &update)
        .unwrap();
    live.remove_tuple(&mut tid, TupleId(0)).unwrap();
    let report = replica.apply_delta(&delta).unwrap();
    assert_eq!(report.artifacts, 1);
    assert!(
        replica.stats().patches_applied >= 1,
        "a warm replica applies a delta by patching, not recompiling"
    );
    for phi in &fns {
        let q = HQuery::new(phi.clone());
        let source = live.evaluate(&q, &tid).unwrap();
        assert_eq!(
            source,
            replica.evaluate(&q, &tid).unwrap(),
            "replica drifted"
        );
        assert_eq!(
            source,
            pqe_brute_force(&q, &tid).unwrap(),
            "source vs brute force"
        );
    }

    // The patched cache snapshot loads into a cold engine that answers
    // bit-identically and hits the cache.
    let snapshot = live.save_cache();
    let mut cold = PqeEngine::new();
    let loaded = cold.load_cache(&snapshot).unwrap();
    assert_eq!(loaded.artifacts, live.cache_len());
    for phi in &fns {
        let q = HQuery::new(phi.clone());
        assert_eq!(
            live.evaluate(&q, &tid).unwrap(),
            cold.evaluate(&q, &tid).unwrap(),
            "loaded cache must answer like the patched source"
        );
        assert_eq!(
            live.evaluate_f64(&q, &tid).unwrap().to_bits(),
            cold.evaluate_f64(&q, &tid).unwrap().to_bits(),
            "f64 bit identity through the store"
        );
    }
    assert!(
        cold.stats().cache_hits >= 1,
        "loaded artifacts must serve hits"
    );
}
