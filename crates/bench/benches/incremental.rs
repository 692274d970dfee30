//! E23: incremental artifact maintenance — what patching buys when one
//! tuple changes under a live cached query. Four strategies around a
//! single-tuple remove/insert round trip, across domain sizes and both
//! artifact kinds — `obdd` is a degenerate ψ (`h_{3,0}` alone, a pure
//! Prop 3.7 OBDD), `dd` is φ9 (the full Thm 5.2 d-D, whose patch is the
//! patch of its leaf OBDDs under an unchanged template):
//!
//! * `patch_update_eval` — the live-update API: every cached artifact
//!   is patched across the structural change, evaluations stay pure
//!   walks, zero recompiles ever.
//! * `recompile_update_eval` — the pre-incremental discipline: the same
//!   updates applied to the instance, the cache cleared, the artifact
//!   recompiled from scratch before each evaluation.
//! * `cold_miss_eval` — the cache-miss floor: a fresh engine's first
//!   touch (classify + compile + insert + walk), for scale.
//! * `reweight_eval` — a probability-only update: no structural work at
//!   all, the walk reads the new weights (the cache key excludes
//!   probabilities).
//!
//! The target this bench was written for: at domain 16,
//! `patch_update_eval` beats `recompile_update_eval` by ≥ 5× for
//! single-tuple updates. It was met on the `obdd` artifact, where
//! patching avoids the whole unrolling, until the unroll came to visit
//! only reachable automaton states: a recompile got about 4× cheaper and
//! patching now wins by about 1.4×, because a patch still rebuilds the
//! slot streams and copies the transplanted suffix, which that change
//! did not shrink. See `EXPERIMENTS.md` (E23) for measured numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use intext_bench::bench_tid;
use intext_boolfn::{phi9, BoolFn};
use intext_engine::PqeEngine;
use intext_numeric::BigRational;
use intext_query::HQuery;
use intext_tid::{Tid, TupleDesc, TupleId};
use std::hint::black_box;

/// The id `R(0)` currently has (removal renumbers ids, so look it up).
fn r0(tid: &Tid) -> TupleId {
    tid.database()
        .iter()
        .find(|&(_, desc)| desc == TupleDesc::R(0))
        .expect("R(0) is part of every bench instance")
        .0
}

fn bench_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental");
    g.sample_size(10);
    let queries = [
        ("obdd", HQuery::new(BoolFn::var(4, 0))),
        ("dd", HQuery::new(phi9())),
    ];

    for (kind, q) in &queries {
        for domain in [4u32, 8, 16] {
            let base = bench_tid(3, domain, 23);

            // Patch: remove R(0), evaluate, insert it back, evaluate —
            // the only compile the engine ever does is the warm-up.
            g.bench_with_input(
                BenchmarkId::new(format!("patch_update_eval_{kind}"), domain),
                &base,
                |b, base| {
                    let mut tid = base.clone();
                    let mut engine = PqeEngine::new();
                    engine.evaluate_f64(q, &tid).unwrap();
                    b.iter(|| {
                        let id = r0(&tid);
                        let (desc, p) = engine.remove_tuple(&mut tid, id).unwrap();
                        let removed = engine.evaluate_f64(q, &tid).unwrap();
                        engine.insert_tuple(&mut tid, desc, p).unwrap();
                        let restored = engine.evaluate_f64(q, &tid).unwrap();
                        black_box((removed, restored))
                    });
                    assert_eq!(
                        engine.stats().cache_misses,
                        1,
                        "the patched engine never recompiles past its warm-up"
                    );
                    // Correctness gate: the endlessly-patched artifact
                    // still answers bit-identically to a fresh compile.
                    let mut fresh = PqeEngine::new();
                    assert_eq!(
                        engine.evaluate_f64(q, &tid).unwrap().to_bits(),
                        fresh.evaluate_f64(q, &tid).unwrap().to_bits(),
                        "patched vs fresh compile, {kind} at domain {domain}"
                    );
                    let stats = engine.stats();
                    println!(
                        "incremental/{kind}: domain {domain}, {} patches in {} ns total ({} ns/patch), {} recompiles avoided",
                        stats.patches_applied,
                        stats.patch_nanos,
                        stats.patch_nanos / stats.patches_applied.max(1),
                        stats.full_recompiles_avoided,
                    );
                },
            );

            // Recompile: identical update stream, but the artifact is
            // discarded and rebuilt from scratch after every change.
            g.bench_with_input(
                BenchmarkId::new(format!("recompile_update_eval_{kind}"), domain),
                &base,
                |b, base| {
                    let mut tid = base.clone();
                    let mut engine = PqeEngine::new();
                    engine.evaluate_f64(q, &tid).unwrap();
                    b.iter(|| {
                        let id = r0(&tid);
                        let (desc, p) = tid.remove(id).unwrap();
                        engine.clear_cache();
                        let removed = engine.evaluate_f64(q, &tid).unwrap();
                        tid.insert(desc, p).unwrap();
                        engine.clear_cache();
                        let restored = engine.evaluate_f64(q, &tid).unwrap();
                        black_box((removed, restored))
                    });
                },
            );

            // Cold miss: first-touch cost of an empty cache, for scale.
            g.bench_with_input(
                BenchmarkId::new(format!("cold_miss_eval_{kind}"), domain),
                &base,
                |b, tid| {
                    b.iter(|| {
                        let mut engine = PqeEngine::new();
                        black_box(engine.evaluate_f64(q, tid).unwrap())
                    });
                },
            );

            // Reweight: a probability-only update touches no structure;
            // the cached artifact is walked under the new weights.
            g.bench_with_input(
                BenchmarkId::new(format!("reweight_eval_{kind}"), domain),
                &base,
                |b, base| {
                    let mut tid = base.clone();
                    let mut engine = PqeEngine::new();
                    engine.evaluate_f64(q, &tid).unwrap();
                    let mut flip = false;
                    b.iter(|| {
                        flip = !flip;
                        let p = BigRational::from_ratio(if flip { 1 } else { 2 }, 3);
                        engine.set_probability(&mut tid, TupleId(0), p).unwrap();
                        black_box(engine.evaluate_f64(q, &tid).unwrap())
                    });
                    assert_eq!(
                        engine.stats().patches_applied,
                        0,
                        "reweighting must not touch artifact structure"
                    );
                },
            );
        }
    }

    g.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
