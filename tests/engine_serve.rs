//! Differential concurrency + saturation harness for the serve layer
//! (`crates/serve`, DESIGN.md §10).
//!
//! The serve layer's claim is the strongest kind a concurrent front
//! door can make: N clients hammering one shared engine get answers
//! **bit-identical** to a sequential [`PqeEngine`] fed the same
//! requests — exact rationals `==`, f64s equal to the bit, estimates
//! sample-for-sample — and the merged server statistics equal the
//! sequential engine's on every count field. Overload shows up *only*
//! as typed backpressure ([`ServeError::QueueFull`] /
//! [`ServeError::DeadlineExceeded`] / [`ServeError::BudgetExceeded`]):
//! never a wrong answer, never a panic, never a deadlock.
//!
//! The tests prove it differentially:
//!
//! * the headline sweep runs **all 272 Boolean functions with
//!   `k ≤ 2`** (16 on two variables, 256 on three) through concurrent
//!   clients, exact and f64, under a config that covers every H-query
//!   route — OBDD, d-D, brute force, and seeded Monte-Carlo sampling —
//!   and diffs both answers and stats against a sequential engine;
//! * batch and sharded-batch requests — H-shaped, safe and unsafe
//!   parsed UCQs — diff against the engine's own batch paths
//!   (including lane-kernel call counts: the server runs the engine's
//!   executor), and a batch that cannot be planned leaves no trace;
//! * a **deterministic saturation** test wedges the single worker on a
//!   brute-force query, fills the admission queue, and accounts for
//!   every submission: admitted ones all resolve (answer, deadline
//!   rejection, or client cancel), excess ones are `QueueFull` — and a
//!   randomized hammer re-checks the same partition under racing
//!   clients;
//! * live tuple updates race evaluations through the shared lock,
//!   keeping `cache_gates() ≤ budget` throughout and ending patched ≡
//!   fresh (the PR 7 oracle discipline, now under concurrency);
//! * TCP and Unix-socket transports round-trip answers losslessly.
//!
//! CI runs this binary under both `RUST_TEST_THREADS=1` and the
//! default parallel mode: the serve layer spawns its own threads, so
//! single-threaded test scheduling must not be load-bearing.
//!
//! [`ServeError::QueueFull`]: intext_serve::ServeError::QueueFull
//! [`ServeError::DeadlineExceeded`]: intext_serve::ServeError::DeadlineExceeded
//! [`ServeError::BudgetExceeded`]: intext_serve::ServeError::BudgetExceeded

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use intext_boolfn::BoolFn;
use intext_engine::{
    EngineConfig, EngineError, EngineStats, Plan, PqeEngine, RouteLatency, SamplingConfig,
};
use intext_numeric::BigRational;
use intext_query::{HQuery, Query};
use intext_serve::{listen_tcp, RemoteClient, Request, Response, ServeConfig, ServeError, Server};
use intext_tid::{Database, Tid, TupleDesc, Vocabulary};

/// Instance-size cap shared with `tests/engine_incremental.rs`: at most
/// `2^7` possible worlds keeps full-corpus sweeps fast in debug builds.
const TUPLE_CAP: usize = 7;

/// Clients in the concurrent sweeps.
const CLIENTS: usize = 4;

/// SplitMix64 — same reproducible-from-one-u64 discipline as the other
/// harnesses.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

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

/// A TID with exactly `n` tuples of the `(k, domain)` universe, chosen
/// and weighted by the seeded stream — fixed size so each test pins the
/// routes it means to exercise (brute force under the budget, sampling
/// above it).
fn sized_tid(state: &mut u64, k: u8, domain: u32, n: usize) -> Tid {
    let all = universe(k, domain);
    assert!(
        n <= all.len(),
        "universe of k={k} domain={domain} has only {} tuples",
        all.len()
    );
    let mut tid = Tid::new(Database::new(k, domain), Vec::new()).unwrap();
    for &t in &all {
        if tid.len() < n && mix(state).is_multiple_of(2) {
            tid.insert(t, rational(state)).unwrap();
        }
    }
    for &t in &all {
        if tid.len() >= n {
            break;
        }
        if !tid.database().iter().any(|(_, have)| have == t) {
            tid.insert(t, rational(state)).unwrap();
        }
    }
    tid
}

/// All `2^(2^(k+1))` Boolean functions on `k + 1` variables.
fn all_functions(k: u8) -> Vec<BoolFn> {
    let tables: u64 = 1 << (1u64 << (k + 1));
    (0..tables)
        .map(|t| BoolFn::from_table_u64(k + 1, t))
        .collect()
}

/// Asserts every *count* field of the merged server stats equals the
/// sequential engine's. Wall-time fields and the `last`/`last_batch`
/// echoes are excluded by design: they are order- or clock-dependent
/// (see the `EngineStats::last_batch` docs), while counts must be
/// exactly order-independent.
fn assert_counts_equal(server: &EngineStats, seq: &EngineStats, context: &str) {
    assert_eq!(server.queries, seq.queries, "{context}: queries");
    assert_eq!(server.cache_hits, seq.cache_hits, "{context}: cache_hits");
    assert_eq!(
        server.cache_misses, seq.cache_misses,
        "{context}: cache_misses"
    );
    assert_eq!(
        server.cache_evictions, seq.cache_evictions,
        "{context}: cache_evictions"
    );
    assert_eq!(
        server.artifact_loads, seq.artifact_loads,
        "{context}: artifact_loads"
    );
    assert_eq!(
        server.samples_drawn, seq.samples_drawn,
        "{context}: samples_drawn"
    );
    assert_eq!(
        server.lane_kernel_calls, seq.lane_kernel_calls,
        "{context}: lane_kernel_calls"
    );
    assert_eq!(
        server.patches_applied, seq.patches_applied,
        "{context}: patches_applied"
    );
    // Histograms: the *number* of recordings per route must match (the
    // recorded latencies themselves are wall-clock, so only counts are
    // deterministic). These counts are the per-plan query counts; the
    // exhaustive destructuring keeps every route in the comparison.
    let RouteLatency {
        obdd,
        dd,
        brute_force,
        sample,
        lifted,
        ground,
    } = &server.route_latency;
    for (route, s, q) in [
        ("obdd", obdd, &seq.route_latency.obdd),
        ("dd", dd, &seq.route_latency.dd),
        ("brute_force", brute_force, &seq.route_latency.brute_force),
        ("sample", sample, &seq.route_latency.sample),
        ("lifted", lifted, &seq.route_latency.lifted),
        ("ground", ground, &seq.route_latency.ground),
    ] {
        assert_eq!(s.count(), q.count(), "{context}: {route} latency count");
    }
}

/// The circuit-leaning config: tiny brute-force budget plus seeded
/// sampling, so the `k ≤ 2` sweep on a 7-tuple instance routes through
/// OBDD, d-D, brute force (small instances), *and* Monte-Carlo (hard φ
/// past the budget) — deterministic to the bit thanks to the fixed
/// seed and absent deadline.
fn circuit_config() -> EngineConfig {
    EngineConfig {
        max_brute_force_tuples: 4,
        sampling: Some(SamplingConfig {
            eps: 0.2,
            delta: 0.05,
            deadline: None,
            seed: common::BASE_SEED,
        }),
        ..EngineConfig::default()
    }
}

/// The headline differential: all 272 `k ≤ 2` functions, exact and
/// f64, pushed through [`CLIENTS`] concurrent clients of one server —
/// answers bit-identical to a sequential engine fed the same multiset,
/// merged stats equal on every count field.
#[test]
fn concurrent_clients_match_sequential_engine_for_all_k2_functions() {
    let config = circuit_config();
    let mut coverage = EngineStats::default();
    for k in 1u8..=2 {
        let mut state = common::BASE_SEED ^ (u64::from(k) << 32);
        // k = 1 stays under the 4-tuple brute-force budget (hard φ
        // brute-forced); k = 2 sits above it (hard φ sampled).
        let n = if k == 1 { 3 } else { TUPLE_CAP };
        let tid = sized_tid(&mut state, k, 2, n);
        let fns = all_functions(k);

        // Sequential oracle: same config, same requests, one thread.
        let mut seq = PqeEngine::with_config(config);
        let expected: Vec<(BigRational, u64)> = fns
            .iter()
            .map(|phi| {
                let q = HQuery::new(phi.clone());
                let exact = seq.evaluate(&q, &tid).unwrap();
                let bits = seq.evaluate_f64(&q, &tid).unwrap().to_bits();
                (exact, bits)
            })
            .collect();
        let seq_stats = seq.stats().clone();

        // Concurrent server: CLIENTS threads split the functions
        // round-robin, each asking exact + f64.
        let server = Server::start(ServeConfig {
            engine: config,
            workers: CLIENTS,
            queue_capacity: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        thread::scope(|scope| {
            for client in 0..CLIENTS {
                let handle = handle.clone();
                let (fns, expected, tid) = (&fns, &expected, &tid);
                scope.spawn(move || {
                    for (i, phi) in fns.iter().enumerate().skip(client).step_by(CLIENTS) {
                        let q = HQuery::new(phi.clone());
                        let exact = handle.evaluate(&q, tid).unwrap();
                        assert_eq!(
                            exact,
                            expected[i].0,
                            "k={k} φ table {:#x}: exact answer diverged",
                            phi.table_u64()
                        );
                        let bits = handle.evaluate_f64(&q, tid).unwrap().to_bits();
                        assert_eq!(
                            bits,
                            expected[i].1,
                            "k={k} φ table {:#x}: f64 bits diverged",
                            phi.table_u64()
                        );
                    }
                });
            }
        });
        let stats = server.shutdown();
        assert_counts_equal(&stats, &seq_stats, &format!("k={k}"));
        assert_eq!(stats.queries, 2 * fns.len() as u64);
        coverage.merge(&stats);
    }

    // The sweep must actually have exercised the mixed routes.
    assert!(coverage.plans(Plan::Obdd) > 0, "no OBDD route");
    assert!(coverage.plans(Plan::BruteForce) > 0, "no brute-force route");
    assert!(
        coverage.plans(Plan::Sample(intext_engine::SamplerKind::KarpLuby)) > 0,
        "no sampled route"
    );
    assert!(
        coverage.plans(Plan::DdCircuit) > 0,
        "never took the d-D route"
    );
}

/// Batches: a mixed-shape scenario workload served concurrently (one
/// client exact, one sharded f64) is bit-identical to the engine's own
/// batch paths — including the lane-kernel call count, because the
/// server runs the engine's executor — for a d-D H-query and for a safe
/// (lifted) and an unsafe (grounded) parsed UCQ.
#[test]
fn concurrent_batches_match_the_engines_batch_paths() {
    let config = circuit_config();
    let mut state = common::BASE_SEED ^ 0xBA7C;
    // Two shapes: 6 scenarios re-weighting shape A, then 3 of shape B —
    // exercising run sharing and the fresh-shape boundary.
    let shape_a = sized_tid(&mut state, 2, 2, 5);
    let shape_b = sized_tid(&mut state, 2, 2, 3);
    let mut scenarios: Vec<Tid> = Vec::new();
    for _ in 0..6 {
        let probs: Vec<BigRational> = (0..shape_a.len()).map(|_| rational(&mut state)).collect();
        scenarios.push(Tid::new(shape_a.database().clone(), probs).unwrap());
    }
    for _ in 0..3 {
        let probs: Vec<BigRational> = (0..shape_b.len()).map(|_| rational(&mut state)).collect();
        scenarios.push(Tid::new(shape_b.database().clone(), probs).unwrap());
    }
    let phi = BoolFn::from_table_u64(3, 0x96); // a zero-Euler d-D function
    let voc = Vocabulary::h(2);
    let queries = [
        Query::from(HQuery::new(phi)),
        Query::parse("S1(0,y),T(y)", &voc).unwrap(), // safe: lifted
        Query::parse("R(x),S1(x,y),T(y)", &voc).unwrap(), // unsafe: grounded
    ];
    const SHARDS: usize = 3;

    let mut seq = PqeEngine::with_config(config);
    let server = Server::start(ServeConfig {
        engine: config,
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    for q in &queries {
        let expected_exact = seq.evaluate_batch_sharded(q, &scenarios, 1).unwrap();
        let expected_f64 = seq
            .evaluate_batch_sharded_f64(q, &scenarios, SHARDS)
            .unwrap();
        thread::scope(|scope| {
            let exact_client = {
                let handle = handle.clone();
                let scenarios = &scenarios;
                scope.spawn(move || handle.evaluate_batch(q, scenarios).unwrap())
            };
            let f64_client = {
                let handle = handle.clone();
                let scenarios = &scenarios;
                scope.spawn(move || handle.evaluate_batch_f64(q, scenarios, SHARDS).unwrap())
            };
            assert_eq!(exact_client.join().unwrap(), expected_exact, "{q}");
            let served_f64 = f64_client.join().unwrap();
            assert_eq!(served_f64.len(), expected_f64.len());
            for (i, (a, b)) in served_f64.iter().zip(&expected_f64).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{q} scenario {i}: sharded f64 bits diverged"
                );
            }
        });
    }
    let seq_stats = seq.stats().clone();
    // Empty batches resolve too (to empty answers, zero queries).
    assert_eq!(
        handle.evaluate_batch(&queries[0], &[]).unwrap(),
        Vec::<BigRational>::new()
    );
    let stats = server.shutdown();
    assert_counts_equal(&stats, &seq_stats, "batch workload");
    assert!(
        stats.lane_kernel_calls > 0,
        "sharded f64 skipped the lane kernel"
    );
    assert!(stats.plans(Plan::Lifted) > 0, "no lifted batch");
    assert!(stats.plans(Plan::GroundCircuit) > 0, "no grounded batch");
}

/// A served batch that cannot be planned is all-or-nothing, exactly like
/// the engine's own: the k = 3 scenario would compile (and be answered)
/// before the k = 2 one fails, if planning were not strictly up front —
/// so a rejected request must leave no compile, no cached artifact, and
/// no counted query behind.
#[test]
fn failed_served_batches_leave_no_side_effects() {
    let mut state = common::BASE_SEED ^ 0xBAD;
    let scenarios = vec![
        sized_tid(&mut state, 3, 2, TUPLE_CAP),
        sized_tid(&mut state, 2, 2, TUPLE_CAP),
    ];
    let q = HQuery::new(intext_boolfn::phi9());
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    for err in [
        handle.evaluate_batch(&q, &scenarios).unwrap_err(),
        handle.evaluate_batch_f64(&q, &scenarios, 2).unwrap_err(),
    ] {
        assert!(
            matches!(
                err,
                ServeError::Engine(EngineError::VocabularyMismatch { .. })
            ),
            "{err}"
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.queries, 0);
    assert_eq!(stats.cache_misses, 0);
    assert_eq!(handle.engine().cache_len(), 0);
    server.shutdown();
}

/// Estimates are sample-for-sample reproducible across the server, and
/// a snapshot taken mid-traffic warm-starts a replica that answers
/// bit-identically with zero compiles.
#[test]
fn estimates_and_snapshots_serve_replicas() {
    let config = circuit_config();
    let mut state = common::BASE_SEED ^ 0xE57;
    let tid = sized_tid(&mut state, 2, 2, TUPLE_CAP);
    let fns = all_functions(2);

    let mut seq = PqeEngine::with_config(config);
    let server = Server::start(ServeConfig {
        engine: config,
        workers: CLIENTS,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();

    // Concurrent estimate sweep vs the sequential engine: exact routes
    // come back with eps = 0, sampled routes with the seeded stream's
    // exact draw count and value bits.
    let expected: Vec<_> = fns
        .iter()
        .map(|phi| seq.estimate(HQuery::new(phi.clone()), &tid).unwrap())
        .collect();
    thread::scope(|scope| {
        for client in 0..CLIENTS {
            let handle = handle.clone();
            let (fns, expected, tid) = (&fns, &expected, &tid);
            scope.spawn(move || {
                for (i, phi) in fns.iter().enumerate().skip(client).step_by(CLIENTS) {
                    let e = handle.estimate(HQuery::new(phi.clone()), tid).unwrap();
                    let want = &expected[i];
                    assert_eq!(
                        e.value.to_bits(),
                        want.value.to_bits(),
                        "φ table {:#x}: estimate value diverged",
                        phi.table_u64()
                    );
                    assert_eq!(e.eps.to_bits(), want.eps.to_bits());
                    assert_eq!(e.samples, want.samples);
                    assert_eq!(e.sampler, want.sampler);
                    assert!(!e.deadline_hit, "no deadline is configured");
                }
            });
        }
    });

    // Snapshot → replica warm start: every cacheable answer replays
    // from the snapshot without a single compile.
    let snapshot = handle.snapshot().unwrap();
    let mut replica = PqeEngine::with_config(config);
    let report = replica.load_cache(&snapshot).unwrap();
    assert!(report.artifacts > 0, "traffic left nothing cacheable?");
    for phi in &fns {
        let q = HQuery::new(phi.clone());
        assert_eq!(
            replica.evaluate(&q, &tid).unwrap(),
            seq.evaluate(&q, &tid).unwrap(),
            "replica diverged on φ table {:#x}",
            phi.table_u64()
        );
    }
    assert_eq!(
        replica.stats().cache_misses,
        0,
        "warm-started replica recompiled something"
    );
    server.shutdown();
}

/// Finds a function the engine will brute-force on `tid` under
/// `config` — the deterministic way to wedge a worker for a while.
fn brute_force_function(config: EngineConfig, tid: &Tid) -> HQuery {
    let engine = PqeEngine::with_config(config);
    all_functions(tid.database().k())
        .into_iter()
        .map(HQuery::new)
        .find(|q| engine.plan(q, tid) == Ok(Plan::BruteForce))
        .expect("some k=2 function is hard on this instance")
}

/// Deterministic saturation: one worker, a wedging brute-force query,
/// a full queue. Every submission is accounted for — admitted requests
/// all resolve (answer, deadline rejection, or client cancel), excess
/// ones are `QueueFull` at the door — and the queue never exceeds its
/// bound.
#[test]
fn saturation_sheds_load_only_via_typed_backpressure() {
    // Default engine config: no sampling, 20-tuple brute-force budget,
    // so a hard φ on an 18-tuple instance enumerates 2^18 worlds.
    let mut state = common::BASE_SEED ^ 0x5A7;
    let big = sized_tid(&mut state, 2, 3, 18);
    let hard = brute_force_function(EngineConfig::default(), &big);
    const CAPACITY: usize = 4;

    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: CAPACITY,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();

    // Wedge the single worker, then wait for it to take the job.
    let slow = handle
        .submit(Request::Evaluate {
            q: hard.clone().into(),
            tid: big.clone(),
        })
        .unwrap();
    let started = Instant::now();
    while handle.queue_depth() > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "worker never picked up the wedge job"
        );
        thread::yield_now();
    }

    // Fill the queue: one doomed-by-deadline entry, one cancel target,
    // and normal pings for the rest of the capacity.
    let doomed = handle
        .clone()
        .with_deadline(Duration::from_nanos(1))
        .submit(Request::Ping)
        .unwrap();
    let cancel_me = handle.submit(Request::Ping).unwrap();
    let pings: Vec<_> = (0..CAPACITY - 2)
        .map(|_| handle.submit(Request::Ping).unwrap())
        .collect();
    assert_eq!(handle.queue_depth(), CAPACITY);

    // The bound is a hard wall: every further submission is QueueFull.
    for _ in 0..3 {
        let err = handle.submit(Request::Ping).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: CAPACITY });
        assert!(err.is_backpressure());
    }

    // Cancellation takes the entry back exactly once.
    assert!(cancel_me.cancel(), "entry was still queued");
    assert!(!cancel_me.cancel(), "second cancel must lose");
    assert_eq!(cancel_me.wait().unwrap_err(), ServeError::Cancelled);

    // The wedge job itself resolves with the *right answer* — overload
    // never corrupts an admitted computation.
    match slow.wait().unwrap() {
        Response::Exact(p) => {
            assert_eq!(p, PqeEngine::new().evaluate(&hard, &big).unwrap())
        }
        other => panic!("expected an exact answer, got {other:?}"),
    }

    // The deadline entry was popped after its deadline: typed rejection.
    match doomed.wait().unwrap_err() {
        ServeError::DeadlineExceeded { late_by } => assert!(late_by > Duration::ZERO),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }

    // Everything else resolves normally; shutdown joins cleanly.
    for ping in pings {
        assert!(matches!(ping.wait().unwrap(), Response::Pong));
    }
    assert!(handle.queue_high_water() <= CAPACITY);
    server.shutdown();
}

/// Randomized saturation: racing clients fire non-blocking bursts at a
/// tiny queue. Every submission resolves to exactly one of a correct
/// answer or typed backpressure; nothing deadlocks, nothing is lost.
#[test]
fn racing_bursts_never_lose_or_corrupt_a_request() {
    let mut state = common::BASE_SEED ^ 0xBB;
    let tid = sized_tid(&mut state, 1, 2, 3);
    let fns = all_functions(1);
    let expected: Vec<u64> = {
        let mut seq = PqeEngine::new();
        fns.iter()
            .map(|phi| {
                seq.evaluate_f64(HQuery::new(phi.clone()), &tid)
                    .unwrap()
                    .to_bits()
            })
            .collect()
    };

    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let answered = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    thread::scope(|scope| {
        for client in 0..6 {
            let handle = handle.clone();
            let (fns, expected) = (&fns, &expected);
            let (answered, rejected, tid) = (&answered, &rejected, &tid);
            scope.spawn(move || {
                let mut state = common::BASE_SEED ^ (client as u64) << 17;
                for round in 0..20 {
                    // A burst of up to 4 non-blocking submissions …
                    let burst: Vec<(usize, _)> = (0..1 + mix(&mut state) % 4)
                        .map(|_| {
                            let i = (mix(&mut state) as usize) % fns.len();
                            let req = Request::EvaluateF64 {
                                q: HQuery::new(fns[i].clone()).into(),
                                tid: tid.clone(),
                            };
                            (i, handle.submit(req))
                        })
                        .collect();
                    // … then every outcome is accounted for.
                    for (i, submitted) in burst {
                        match submitted {
                            Ok(pending) => match pending.wait() {
                                Ok(Response::F64(p)) => {
                                    assert_eq!(
                                        p.to_bits(),
                                        expected[i],
                                        "client {client} round {round}: wrong bits under load"
                                    );
                                    answered.fetch_add(1, Ordering::Relaxed);
                                }
                                Ok(other) => panic!("wrong response shape: {other:?}"),
                                Err(e) => panic!("admitted request failed: {e}"),
                            },
                            Err(e) => {
                                assert!(
                                    e.is_backpressure(),
                                    "client {client} round {round}: non-backpressure rejection {e}"
                                );
                                rejected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    let stats = server.shutdown();
    let answered = answered.load(Ordering::Relaxed);
    assert_eq!(
        stats.queries, answered,
        "every admitted request was evaluated"
    );
    assert!(answered > 0, "the hammer never landed a request");
    assert!(handle.queue_high_water() <= 4);
}

/// Satellite (b): live tuple updates race evaluations through the
/// shared rw-lock. The gate budget holds at every observation point,
/// every concurrent answer is correct for the instance it was asked
/// about, and the patched engine ends indistinguishable from a fresh
/// compile — the PR 7 oracle discipline, now under concurrency.
#[test]
fn concurrent_updates_keep_the_cache_bounded_and_patched_equals_fresh() {
    const BUDGET: usize = 512;
    const STEPS: usize = 12;
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            cache_gate_budget: Some(BUDGET),
            ..EngineConfig::default()
        },
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();

    // One updater per vocabulary, each owning its TID; a reader
    // hammering a fixed instance through the server concurrently.
    let final_tids: Mutex<Vec<Tid>> = Mutex::new(Vec::new());
    let mut reader_state = common::BASE_SEED ^ 0x0F;
    let reader_tid = sized_tid(&mut reader_state, 1, 2, 3);
    let reader_fns = all_functions(1);
    let reader_expected: Vec<BigRational> = {
        let mut seq = PqeEngine::new();
        reader_fns
            .iter()
            .map(|phi| seq.evaluate(HQuery::new(phi.clone()), &reader_tid).unwrap())
            .collect()
    };
    thread::scope(|scope| {
        for k in 1u8..=2 {
            let handle = handle.clone();
            let final_tids = &final_tids;
            scope.spawn(move || {
                let mut state = common::BASE_SEED ^ (u64::from(k) << 7);
                let all = universe(k, 2);
                let mut tid = sized_tid(&mut state, k, 2, 4);
                let phi = BoolFn::from_table_u64(k + 1, if k == 1 { 0x6 } else { 0x96 });
                let q = HQuery::new(phi);
                let engine = handle.engine();
                for _ in 0..STEPS {
                    // Touch the artifact so updates patch live state.
                    let before = handle.evaluate(&q, &tid).unwrap();
                    assert_eq!(
                        before,
                        intext_query::pqe_brute_force(&q, &tid).unwrap(),
                        "k={k}: served answer wrong for the current instance"
                    );
                    // One random structural/weight update via the
                    // write-locked path.
                    let present: Vec<_> = tid.database().iter().map(|(id, _)| id).collect();
                    let absent: Vec<_> = all
                        .iter()
                        .copied()
                        .filter(|t| !tid.database().iter().any(|(_, have)| have == *t))
                        .collect();
                    match mix(&mut state) % 3 {
                        0 if !absent.is_empty() && tid.len() < TUPLE_CAP => {
                            let t = absent[(mix(&mut state) as usize) % absent.len()];
                            engine
                                .insert_tuple(&mut tid, t, rational(&mut state))
                                .unwrap();
                        }
                        1 if tid.len() > 1 => {
                            let id = present[(mix(&mut state) as usize) % present.len()];
                            engine.remove_tuple(&mut tid, id).unwrap();
                        }
                        _ => {
                            let id = present[(mix(&mut state) as usize) % present.len()];
                            engine
                                .set_probability(&mut tid, id, rational(&mut state))
                                .unwrap();
                        }
                    }
                    // The budget holds at every observation point, even
                    // mid-update-storm.
                    let gates = engine.cache_gates();
                    assert!(
                        gates <= BUDGET,
                        "k={k}: cache_gates {gates} exceeded the {BUDGET} budget"
                    );
                }
                final_tids.lock().unwrap().push(tid);
            });
        }
        // The reader: correct answers for its own (never-updated)
        // instance throughout the storm.
        let reader = handle.clone();
        let (reader_fns, reader_expected, reader_tid) =
            (&reader_fns, &reader_expected, &reader_tid);
        scope.spawn(move || {
            for _ in 0..3 {
                for (phi, want) in reader_fns.iter().zip(reader_expected) {
                    let p = reader
                        .evaluate(HQuery::new(phi.clone()), reader_tid)
                        .unwrap();
                    assert_eq!(&p, want, "reader answer corrupted by concurrent updates");
                }
            }
        });
    });

    // Patched ≡ fresh, after the storm: the full 272-function sweep on
    // each updater's final instance.
    for tid in final_tids.into_inner().unwrap() {
        let k = tid.database().k();
        let mut fresh = PqeEngine::new();
        for phi in all_functions(k) {
            let q = HQuery::new(phi.clone());
            assert_eq!(
                handle.evaluate(&q, &tid).unwrap(),
                fresh.evaluate(&q, &tid).unwrap(),
                "k={k}: patched ≠ fresh on φ table {:#x}",
                phi.table_u64()
            );
        }
    }
    assert!(handle.engine().cache_gates() <= BUDGET);
    server.shutdown();
}

/// The socket transports: answers cross TCP and Unix sockets
/// losslessly (exact rationals `==` a local engine's), engine errors
/// arrive typed, and a malformed frame closes the connection without
/// hurting the server.
#[test]
fn tcp_and_unix_transports_round_trip_bit_identically() {
    let mut state = common::BASE_SEED ^ 0x7C9;
    let tid = sized_tid(&mut state, 2, 2, 5);
    let q = HQuery::new(BoolFn::from_table_u64(3, 0x96));
    let mut seq = PqeEngine::new();
    let expected = seq.evaluate(&q, &tid).unwrap();
    let expected_bits = seq.evaluate_f64(&q, &tid).unwrap().to_bits();

    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let listener = listen_tcp(server.handle(), "127.0.0.1:0").unwrap();
    let addr = listener.tcp_addr().unwrap();

    let mut client = RemoteClient::connect(addr).unwrap();
    match client
        .request(&Request::Evaluate {
            q: q.clone().into(),
            tid: tid.clone(),
        })
        .unwrap()
        .unwrap()
    {
        Response::Exact(p) => assert_eq!(p, expected, "exact answer lost precision over TCP"),
        other => panic!("expected exact, got {other:?}"),
    }
    match client
        .request(&Request::EvaluateF64 {
            q: q.clone().into(),
            tid: tid.clone(),
        })
        .unwrap()
        .unwrap()
    {
        Response::F64(p) => assert_eq!(p.to_bits(), expected_bits),
        other => panic!("expected f64, got {other:?}"),
    }
    // Typed engine errors travel the wire too: a k=1 query against the
    // k=2 database is a vocabulary mismatch, not a dead connection.
    let mismatch = client
        .request(&Request::Evaluate {
            q: HQuery::new(BoolFn::from_table_u64(2, 0x6)).into(),
            tid: tid.clone(),
        })
        .unwrap()
        .unwrap_err();
    assert!(matches!(
        mismatch,
        ServeError::Engine(intext_engine::EngineError::VocabularyMismatch {
            query_k: 1,
            database_k: 2,
        })
    ));
    assert!(matches!(
        client.request(&Request::Ping).unwrap().unwrap(),
        Response::Pong
    ));

    // A second client races the first over the same listener.
    let mut second = RemoteClient::connect(addr).unwrap();
    match second
        .request(&Request::Batch {
            q: q.clone().into(),
            tids: vec![tid.clone(), tid.clone()],
        })
        .unwrap()
        .unwrap()
    {
        Response::Batch(ps) => assert_eq!(ps, vec![expected.clone(), expected.clone()]),
        other => panic!("expected a batch, got {other:?}"),
    }

    // Unix-domain socket, same contract.
    #[cfg(unix)]
    {
        let path = std::env::temp_dir().join(format!("intext-serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let unix_listener = intext_serve::listen_unix(server.handle(), &path).unwrap();
        let mut unix_client = RemoteClient::connect_unix(&path).unwrap();
        match unix_client
            .request(&Request::Evaluate {
                q: q.clone().into(),
                tid: tid.clone(),
            })
            .unwrap()
            .unwrap()
        {
            Response::Exact(p) => assert_eq!(p, expected),
            other => panic!("expected exact, got {other:?}"),
        }
        drop(unix_client);
        unix_listener.stop();
        assert!(!path.exists(), "socket file survived listener shutdown");
    }

    // A garbage frame closes that connection; the server (and other
    // connections) keep answering.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(&7u32.to_le_bytes()).unwrap();
        raw.write_all(&[0x99; 7]).unwrap(); // unknown opcode
        raw.flush().unwrap();
    }
    assert!(matches!(
        client.request(&Request::Ping).unwrap().unwrap(),
        Response::Pong
    ));

    listener.stop();
    server.shutdown();
}

/// Fault injection (PR 10): a worker panic costs exactly one request —
/// typed [`ServeError::WorkerPanicked`], never a hang or a wrong
/// answer — and a panic that poisons the engine lock is recovered
/// *and counted* (`EngineStats::lock_poisonings_recovered`), not
/// silently swallowed. Every request after either fault still answers
/// bit-identically to a sequential engine.
#[test]
fn injected_panics_cost_one_request_and_poisonings_are_counted() {
    let mut state = common::BASE_SEED ^ 0xFA17;
    let tid = sized_tid(&mut state, 2, 2, 5);
    let q = HQuery::new(BoolFn::from_table_u64(3, 0x96));
    let expected = PqeEngine::new().evaluate(&q, &tid).unwrap();

    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let handle = server.handle();

    // Three armed panics, three requests: each resolves as
    // WorkerPanicked (the worker loop survives every one of them).
    handle.inject_worker_panics(3);
    for round in 0..3 {
        let err = handle.evaluate(&q, &tid).unwrap_err();
        assert_eq!(err, ServeError::WorkerPanicked, "round {round}");
    }

    // The pool is intact: the very next request succeeds, bit-identical
    // to the sequential reference.
    assert_eq!(handle.evaluate(&q, &tid).unwrap(), expected);
    assert_eq!(handle.stats().lock_poisonings_recovered, 0);

    // Now poison the engine lock itself: panic while holding the write
    // guard (the injected panics above run outside the lock and cannot
    // poison it — this is the other failure mode).
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle
            .engine()
            .with_engine_mut(|_| panic!("injected panic under the engine write lock"));
    }));
    assert!(unwound.is_err());

    // Every path still works over the poisoned-and-recovered lock, and
    // the recovery is observable in the merged stats.
    assert_eq!(handle.evaluate(&q, &tid).unwrap(), expected);
    assert!(
        handle.stats().lock_poisonings_recovered >= 1,
        "poison recovery happened but was not counted"
    );
    let final_stats = server.shutdown();
    assert!(final_stats.lock_poisonings_recovered >= 1);
}
