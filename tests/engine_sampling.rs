//! The Monte-Carlo anytime backend, cross-validated against exact
//! evaluation:
//!
//! * every hard-region `φ` with `k ≤ 2` gets a sampled estimate within
//!   its advertised `ε` of `pqe_brute_force` (fixed seed, `δ = 10⁻⁶`,
//!   so a violation is a sampler bug, not bad luck),
//! * the `(ε, δ)` contract holds statistically: across the seed corpus
//!   (`tests/common/mod.rs` — 50 seeds locally, 400 in CI via
//!   `INTEXT_TEST_SEEDS`) the violation count stays at or below
//!   `⌊δ · R⌋` (tolerance derived at the test),
//! * sampling is deterministic — same `(seed, ε, δ)` ⟹ bit-identical
//!   estimates across repeated calls and engine instances — and
//!   sharding-invariant: mixed hard/easy batches return the same bits
//!   for every shard count `0..=16`, with merged sample counters equal
//!   to the sequential run,
//! * `explain()` names the sampler and the region for all three hard
//!   regions, sampling stays opt-in (`Intractable` when disabled), and
//!   `plan_batch` dry runs report the compile/sample split.
//!
//! CI runs this file under both `RUST_TEST_THREADS=1` and the default
//! parallel harness, mirroring `engine_sharding.rs`.

use intext::boolfn::{max_euler_fn, BoolFn};
use intext::core::{classify, Region};
use intext::engine::{
    EngineConfig, EngineError, EngineStats, Plan, PqeEngine, SamplerKind, SamplingConfig,
};
use intext::numeric::BigRational;
use intext::query::{pqe_brute_force, HQuery};
use intext::tid::{complete_database, uniform_tid, Tid, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

fn half() -> BigRational {
    BigRational::from_ratio(1, 2)
}

/// An engine that samples hard instances beyond a tiny brute-force
/// budget, so every complete database with domain ≥ 1 at `k ≥ 2` (and
/// domain ≥ 2 at `k = 1`) routes through the sampler.
fn sampling_engine(seed: u64, eps: f64, delta: f64) -> PqeEngine {
    PqeEngine::with_config(EngineConfig {
        max_brute_force_tuples: 4,
        sampling: Some(SamplingConfig {
            eps,
            delta,
            seed,
            ..SamplingConfig::default()
        }),
        ..EngineConfig::default()
    })
}

fn is_hard(region: Region) -> bool {
    matches!(
        region,
        Region::HardMonotone | Region::HardByTransfer | Region::ConjecturedHard
    )
}

/// The counter halves of two `EngineStats`, sampling included
/// (wall-clock durations legitimately differ between runs, and lane
/// kernel calls from *circuit walks* depend on chunk boundaries — but
/// `samples_drawn` must not).
fn counters(s: &EngineStats) -> [u64; 9] {
    [
        s.queries,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.plans(Plan::Obdd),
        s.plans(Plan::DdCircuit),
        s.plans(Plan::BruteForce),
        s.plans(Plan::Sample(SamplerKind::KarpLuby)),
        s.samples_drawn,
    ]
}

/// Cross-validation sweep: for **every** hard-region Boolean function
/// with `k ≤ 2` on the complete domain-2 database, the sampled estimate
/// lands within its advertised `ε` of the exact brute-force answer.
/// `δ = 10⁻⁶` makes an honest miss essentially impossible, and the
/// fixed seed makes the run reproducible either way. The sweep must
/// exercise both hard sub-regions reachable at `k ≤ 2` and both
/// samplers (Karp–Luby for monotone `φ`, naive worlds otherwise).
#[test]
fn estimates_land_within_eps_of_brute_force_for_every_hard_small_phi() {
    let mut hard_seen = 0usize;
    let mut regions_seen = [false; 3];
    let mut samplers_seen = [false; 2];
    for k in 1..=2u8 {
        let tid = uniform_tid(complete_database(k, 2), half());
        assert!(tid.len() > 4, "instance must exceed the brute-force budget");
        let n = k + 1;
        for table in 0..(1u64 << (1u32 << n)) {
            let phi = BoolFn::from_table_u64(n, table);
            let region = classify(&phi);
            if !is_hard(region) {
                continue;
            }
            hard_seen += 1;
            regions_seen[match region {
                Region::HardMonotone => 0,
                Region::HardByTransfer => 1,
                _ => 2,
            }] = true;
            let q = HQuery::new(phi);
            let exact = pqe_brute_force(&q, &tid).unwrap().to_f64();
            let mut engine = sampling_engine(0xA11CE, 0.1, 1e-6);
            let est = engine.estimate(&q, &tid).unwrap();
            let kind = est.sampler.expect("hard instance must have sampled");
            samplers_seen[matches!(kind, SamplerKind::NaiveWorlds) as usize] = true;
            assert!(
                (est.value - exact).abs() <= est.eps,
                "k={k} table={table:#x} ({kind}): estimate {} vs exact {exact}, ε = {}",
                est.value,
                est.eps,
            );
            assert!(!est.deadline_hit, "no deadline was configured");
            assert!(est.samples > 0, "k={k} table={table:#x} drew no samples");
            assert_eq!(est.delta, 1e-6);
        }
    }
    assert!(
        hard_seen > 20,
        "sweep too small: {hard_seen} hard functions"
    );
    assert!(regions_seen[0], "no HardMonotone function swept");
    assert!(regions_seen[1], "no HardByTransfer function swept");
    assert!(samplers_seen[0], "Karp–Luby never chosen");
    assert!(samplers_seen[1], "naive world sampler never chosen");
}

/// `ConjecturedHard` (`e(φ)` beyond the monotone range) first appears at
/// `k = 3` via `φ_max-Euler`; validate it separately on a domain-1
/// database where the exact answer is still cheap.
#[test]
fn conjectured_hard_region_is_sampled_and_cross_validated() {
    let phi = max_euler_fn(4);
    assert_eq!(classify(&phi), Region::ConjecturedHard);
    let q = HQuery::new(phi);
    let tid = uniform_tid(complete_database(3, 1), half());
    assert!(tid.len() > 4);
    let exact = pqe_brute_force(&q, &tid).unwrap().to_f64();
    let mut engine = sampling_engine(0x5EED, 0.1, 1e-6);
    let est = engine.estimate(&q, &tid).unwrap();
    // φ_max-Euler is non-monotone, so there is no DNF to Karp–Luby over.
    assert_eq!(est.sampler, Some(SamplerKind::NaiveWorlds));
    assert!(
        (est.value - exact).abs() <= est.eps,
        "estimate {} vs exact {exact}",
        est.value
    );
}

/// The statistical contract itself: an `(ε, δ)` estimator may miss by
/// more than `ε` with probability at most `δ`. Run `R` independently
/// seeded engines per sampler at `(ε, δ) = (0.15, 0.05)` and count
/// violations; `R` comes from the shared corpus (`common::seed_count`):
/// 50 locally, 400 in CI via `INTEXT_TEST_SEEDS=400`.
///
/// Tolerance, derived for both sizes: under the guarantee, violations
/// are Binomial(R, p) with p ≤ δ, so the mean is at most `δ · R` —
/// `2.5` at `R = 50`, `20` at `R = 400` — and we assert
/// `violations ≤ ⌊δ · R⌋` (`2` and `20` respectively). That is tight
/// against the *guarantee* but very loose against *reality*: the
/// Hoeffding sample count is conservative by orders of magnitude, so
/// the observed count is 0 for every seed in the 400-seed corpus — of
/// which the 50-seed default is a prefix (`BASE_SEED + r`), so the
/// small run can never flag anything the full run would not (and the
/// fixed base seed makes either run deterministic regardless).
#[test]
fn violation_rate_respects_delta_for_both_samplers() {
    let r_total: u64 = common::seed_count();
    const EPS: f64 = 0.15;
    const DELTA: f64 = 0.05;
    let cases = [
        // Monotone hard ⟹ Karp–Luby over the grounded DNF.
        (BoolFn::from_fn(3, |v| v != 0), SamplerKind::KarpLuby),
        // Non-monotone hard ⟹ naive world sampling through the kernel.
        (
            BoolFn::from_sat(3, [0b001, 0b010, 0b000]),
            SamplerKind::NaiveWorlds,
        ),
    ];
    let tid = uniform_tid(complete_database(2, 2), half());
    for (phi, expected_kind) in cases {
        assert!(is_hard(classify(&phi)));
        let q = HQuery::new(phi);
        let exact = pqe_brute_force(&q, &tid).unwrap().to_f64();
        let mut violations = 0u64;
        for r in 0..r_total {
            let mut engine = sampling_engine(common::BASE_SEED + r, EPS, DELTA);
            let est = engine.estimate(&q, &tid).unwrap();
            assert_eq!(est.sampler, Some(expected_kind));
            if (est.value - exact).abs() > est.eps {
                violations += 1;
            }
        }
        assert!(
            violations <= (DELTA * r_total as f64) as u64,
            "{expected_kind}: {violations} violations out of {r_total} runs \
             exceeds ⌊δR⌋ = {}",
            (DELTA * r_total as f64) as u64
        );
    }
}

/// Determinism: the estimate is a pure function of `(seed, ε, δ, φ,
/// instance)`. Repeated calls on one engine and calls on a fresh engine
/// with the same config return bit-identical estimates; a different
/// seed is allowed to (and here does) move the value.
#[test]
fn same_seed_means_bit_identical_estimates() {
    let tid = uniform_tid(complete_database(2, 2), half());
    for phi in [
        BoolFn::from_fn(3, |v| v != 0),
        BoolFn::from_sat(3, [0b001, 0b010, 0b000]),
    ] {
        let q = HQuery::new(phi);
        let mut a = sampling_engine(9, 0.1, 1e-3);
        let mut b = sampling_engine(9, 0.1, 1e-3);
        let first = a.estimate(&q, &tid).unwrap();
        let again = a.estimate(&q, &tid).unwrap();
        let fresh = b.estimate(&q, &tid).unwrap();
        assert_eq!(first.value.to_bits(), again.value.to_bits());
        assert_eq!(first.value.to_bits(), fresh.value.to_bits());
        assert_eq!(first.samples, fresh.samples);
        // And `evaluate_f64` / exact `evaluate` agree with `estimate`
        // bit for bit: all three run the same sampler at stream 0.
        let mut c = sampling_engine(9, 0.1, 1e-3);
        let mut d = sampling_engine(9, 0.1, 1e-3);
        assert_eq!(
            c.evaluate_f64(&q, &tid).unwrap().to_bits(),
            first.value.to_bits()
        );
        assert_eq!(
            d.evaluate(&q, &tid).unwrap().to_f64().to_bits(),
            first.value.to_bits()
        );
    }
}

/// `count` probability scenarios alternating between two database
/// shapes — one within the brute-force budget, one beyond it — so a
/// single batch mixes exact brute force with Monte-Carlo sampling.
fn mixed_scenarios(count: usize, rng: &mut StdRng) -> Vec<Tid> {
    let easy = uniform_tid(complete_database(2, 1), half()); // 4 tuples
    let hard = uniform_tid(complete_database(2, 2), half()); // 12 tuples
    (0..count)
        .map(|i| {
            let mut tid = if i % 2 == 0 {
                hard.clone()
            } else {
                easy.clone()
            };
            let tuple = TupleId(rng.random_range(0..tid.len() as u32));
            let denom = rng.random_range(2..30u64);
            tid.set_prob(tuple, BigRational::from_ratio(1, denom))
                .unwrap();
            tid
        })
        .collect()
}

/// Sharding is a performance knob for sampled batches too: every shard
/// count `0..=16` returns the same bits as the sequential batch on a
/// mixed hard/easy workload, on both the exact and the f64 paths, and
/// the merged per-shard sample counters equal the sequential totals.
/// Worker-private RNG streams are derived from the *global* scenario
/// index, which is exactly what this pins down.
#[test]
fn sharded_sampling_is_bit_identical_for_every_shard_count() {
    let q = HQuery::new(BoolFn::from_fn(3, |v| v != 0));
    let mut rng = StdRng::seed_from_u64(2020);
    let scenarios = mixed_scenarios(13, &mut rng);

    let config = EngineConfig {
        max_brute_force_tuples: 4,
        sampling: Some(SamplingConfig::default()),
        ..EngineConfig::default()
    };
    let mut sequential = PqeEngine::with_config(config);
    let expected = sequential
        .evaluate_batch_sharded(&q, &scenarios, 1)
        .unwrap();
    let mut sequential_f64 = PqeEngine::with_config(config);
    let expected_f64 = sequential_f64
        .evaluate_batch_sharded_f64(&q, &scenarios, 1)
        .unwrap();
    assert!(sequential.stats().samples_drawn > 0);
    assert_eq!(
        sequential
            .stats()
            .plans(Plan::Sample(SamplerKind::KarpLuby)),
        7,
        "7 of 13 are hard"
    );
    assert_eq!(sequential.stats().plans(Plan::BruteForce), 6);
    assert_eq!(
        counters(sequential.stats()),
        counters(sequential_f64.stats()),
        "exact and f64 paths must sample identically"
    );

    for shards in 0..=16usize {
        let mut engine = PqeEngine::with_config(config);
        let got = engine
            .evaluate_batch_sharded(&q, &scenarios, shards)
            .unwrap();
        assert_eq!(got, expected, "shards={shards}");
        assert_eq!(counters(engine.stats()), counters(sequential.stats()));
        let batch = engine.stats().last_batch.unwrap();
        assert_eq!(batch.sampled, 7, "shards={shards}");

        let mut engine_f64 = PqeEngine::with_config(config);
        let got_f64 = engine_f64
            .evaluate_batch_sharded_f64(&q, &scenarios, shards)
            .unwrap();
        assert_eq!(got_f64, expected_f64, "shards={shards} (f64)");
        assert_eq!(counters(engine_f64.stats()), counters(sequential.stats()));
    }
}

/// `explain()` must say *why* sampling was chosen and *which* sampler
/// will run, for each of the three hard regions.
#[test]
fn explain_names_the_sampler_and_the_region_for_each_hard_region() {
    let cases: [(BoolFn, Region, &str, SamplerKind, &str); 3] = [
        (
            BoolFn::from_fn(3, |v| v != 0),
            Region::HardMonotone,
            "Corollary 3.9",
            SamplerKind::KarpLuby,
            "Karp-Luby",
        ),
        (
            BoolFn::from_sat(3, [0b001, 0b010, 0b000]),
            Region::HardByTransfer,
            "by transfer",
            SamplerKind::NaiveWorlds,
            "naive world",
        ),
        (
            max_euler_fn(4),
            Region::ConjecturedHard,
            "conjectured",
            SamplerKind::NaiveWorlds,
            "naive world",
        ),
    ];
    for (phi, region, region_needle, kind, kind_needle) in cases {
        assert_eq!(classify(&phi), region);
        let k = phi.k();
        let q = HQuery::new(phi);
        let tid = uniform_tid(complete_database(k, 2), half());
        let engine = sampling_engine(1, 0.1, 1e-3);
        assert_eq!(engine.plan(&q, &tid), Ok(Plan::Sample(kind)));
        let explained = engine.explain(&q, &tid).to_string();
        assert!(explained.contains(region_needle), "{explained}");
        assert!(explained.contains(kind_needle), "{explained}");
        assert!(explained.contains("sampling chosen"), "{explained}");
        assert!(explained.contains("brute-force budget"), "{explained}");
    }
}

/// Sampling is strictly opt-in: with `sampling: None` (the default) a
/// hard instance beyond the budget still refuses to guess.
#[test]
fn sampling_disabled_still_returns_intractable() {
    let q = HQuery::new(BoolFn::from_fn(3, |v| v != 0));
    let tid = uniform_tid(complete_database(2, 2), half());
    let mut engine = PqeEngine::with_config(EngineConfig {
        max_brute_force_tuples: 4,
        ..EngineConfig::default()
    });
    assert!(matches!(
        engine.evaluate(&q, &tid),
        Err(EngineError::Intractable { budget: 4, .. })
    ));
    assert!(matches!(
        engine.estimate(&q, &tid),
        Err(EngineError::Intractable { .. })
    ));
    let explained = engine.explain(&q, &tid).to_string();
    assert!(explained.contains("no sound plan"), "{explained}");
}

/// `plan_batch` dry runs report the compile/sample split of a mixed
/// workload without evaluating anything.
#[test]
fn plan_batch_reports_the_compile_sample_split() {
    let mut rng = StdRng::seed_from_u64(7);
    let scenarios = mixed_scenarios(10, &mut rng);
    let engine = sampling_engine(1, 0.1, 1e-3);

    // Hard φ: 5 sampled (beyond-budget shape), 5 brute-forced, nothing
    // compiled — Plan::Sample produces no cacheable artifact.
    let q = HQuery::new(BoolFn::from_fn(3, |v| v != 0));
    let bp = engine.plan_batch(&q, &scenarios, 4).unwrap();
    assert_eq!(bp.scenarios, 10);
    assert_eq!(bp.sampled, 5);
    assert_eq!((bp.compiles, bp.shared), (0, 0));
    assert!(bp.to_string().contains("5 sampled"), "{bp}");
    assert_eq!(engine.stats().queries, 0, "dry run must not evaluate");

    // Safe φ on the same scenarios: all compiled/shared, none sampled.
    let safe = HQuery::new(intext::boolfn::phi9());
    let tid = uniform_tid(complete_database(3, 2), half());
    let bp = engine
        .plan_batch(&safe, &[tid.clone(), tid.clone(), tid], 2)
        .unwrap();
    assert_eq!(bp.sampled, 0);
    assert_eq!((bp.compiles, bp.shared), (1, 2));
}
