//! E22: Monte-Carlo sampling throughput and time-to-ε in the hard
//! region.
//!
//! Past the brute-force budget the engine's hard-region story is the
//! `(ε, δ)` sampler, so the numbers that matter are (a) raw sampling
//! throughput — how many Monte-Carlo samples per second each sampler
//! draws — and (b) **time-to-ε**: the wall time one `estimate()` call
//! needs to honor a given additive-error target, which by the Hoeffding
//! bound scales as `1/ε²`. Both samplers are measured at domain 16 on
//! the same complete-database shape E17/E21 use: Karp–Luby over the
//! grounded DNF for a monotone hard `φ`, and naive world sampling, each
//! world scored on its witness pairs, for a non-monotone hard `φ`
//! (which has no DNF).
//!
//! The two samplers get different ε sweeps on purpose. Karp–Luby's
//! Hoeffding sample count carries the clause-mass factor `M²` (the
//! estimator's range is `[0, M]`, and `M ≈ 20` at domain 16), so its
//! per-call cost at a given ε is ~400× the naive sampler's — tight ε
//! targets would blow the CI smoke budget without changing the story.
//! The `1/ε²` law is visible at any three points of the curve.
//!
//! Determinism is asserted before timing — same seed, same bits — so
//! the measured work is identical across iterations. Criterion's
//! `Throughput::Elements` is set to the per-call sample count, so the
//! reported `elem/s` *is* samples per second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use intext_bench::bench_tid;
use intext_boolfn::BoolFn;
use intext_engine::{EngineConfig, Plan, PqeEngine, SamplerKind, SamplingConfig};
use intext_query::HQuery;
use std::hint::black_box;

/// A sampling engine whose brute-force budget nothing here fits in.
fn engine(eps: f64) -> PqeEngine {
    PqeEngine::with_config(EngineConfig {
        max_brute_force_tuples: 4,
        sampling: Some(SamplingConfig {
            eps,
            delta: 1e-3,
            seed: 22,
            ..SamplingConfig::default()
        }),
        ..EngineConfig::default()
    })
}

fn bench_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampling");
    g.sample_size(10);
    // Domain 16 per the E22 spec: 544 tuples, far beyond any sane
    // brute-force budget — exactly the regime sampling exists for.
    let base = bench_tid(2, 16, 22);
    let cases = [
        // Monotone hard ⟹ Karp–Luby over the grounded DNF. Looser ε
        // sweep: the M² factor in its sample count (module doc above).
        (
            SamplerKind::KarpLuby,
            "karp-luby",
            HQuery::new(BoolFn::from_fn(3, |v| v != 0)),
            [0.8, 0.6, 0.4],
        ),
        // Non-monotone hard ⟹ naive world sampling.
        (
            SamplerKind::NaiveWorlds,
            "naive-worlds",
            HQuery::new(BoolFn::from_sat(3, [0b001, 0b010, 0b000])),
            [0.4, 0.2, 0.1],
        ),
    ];

    for (kind, name, q, eps_sweep) in &cases {
        // The tightest swept ε doubles as the throughput point: the
        // longest run amortizes per-call setup best.
        let tput_eps = eps_sweep[2];

        // Routing + determinism preconditions, before anything is timed.
        let mut probe = engine(tput_eps);
        assert_eq!(probe.plan(q, &base), Ok(Plan::Sample(*kind)), "{name}");
        let first = probe.estimate(q, &base).unwrap();
        let again = engine(tput_eps).estimate(q, &base).unwrap();
        assert_eq!(
            first.value.to_bits(),
            again.value.to_bits(),
            "{name}: same seed must mean same bits"
        );
        assert!(first.samples > 0, "{name}");

        // (a) Samples per second: Criterion's elem/s is the sampler's
        // throughput, since every iteration draws `samples`.
        g.throughput(Throughput::Elements(first.samples));
        g.bench_with_input(BenchmarkId::new("samples-per-sec", name), q, |b, q| {
            let mut e = engine(tput_eps);
            b.iter(|| black_box(e.estimate(q, &base).unwrap().value));
        });

        // (b) Time-to-ε: tightening the target quadruples the work per
        // halving — the printed means should show the 1/ε² law.
        for eps in *eps_sweep {
            let samples = engine(eps).estimate(q, &base).unwrap().samples;
            g.throughput(Throughput::Elements(samples));
            g.bench_with_input(
                BenchmarkId::new(format!("time-to-eps/{name}"), eps),
                q,
                |b, q| {
                    let mut e = engine(eps);
                    b.iter(|| black_box(e.estimate(q, &base).unwrap().value));
                },
            );
        }

        eprintln!(
            "  sampling/{name}: {} samples/call at ε={tput_eps}, {} ns sampler time",
            probe.stats().samples_drawn,
            probe.stats().sample_nanos,
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
