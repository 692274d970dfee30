//! E21: scalar-per-scenario vs lane-batched batch evaluation.
//!
//! Once an artifact is compiled and cached, the only remaining
//! per-scenario costs are the walk itself and its bookkeeping. The
//! scalar path (`evaluate_f64` in a loop) pays, per scenario: one
//! `O(|D|)` cache-key construction + hash, the value-buffer allocations,
//! and one full node decode. The lane-batched path
//! (`evaluate_batch_sharded_f64` on one shard) groups the same-shape run
//! once, then walks the artifact in blocks of `LANES` scenarios: one
//! node decode and zero steady-state allocations per *block*, with the
//! per-node arithmetic auto-vectorized across lanes.
//!
//! This is an **allocation + cache-locality win, not a threading win** —
//! both contenders here run on a single core (the sharded variant is
//! E18's story). Like E18, the bench prints `threads=` so every recorded
//! number states its regime. Both artifact kinds are measured at domain
//! 16 with 1000 scenarios: `dd` (φ9's d-D: a template over seven leaf
//! OBDDs) and
//! `obdd` (the degenerate h₍₃,₀₎ lineage OBDD). Bit-identity between the
//! two paths is asserted before timing; the acceptance bar (≥ 3×
//! lane-batched over scalar, recorded in `EXPERIMENTS.md`) is checked by
//! eye against the printed means.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use intext_bench::bench_tid;
use intext_boolfn::{phi9, BoolFn};
use intext_engine::PqeEngine;
use intext_numeric::BigRational;
use intext_query::HQuery;
use intext_tid::{Tid, TupleId};
use std::hint::black_box;

/// E21's workload: `count` probability scenarios over one database
/// shape, each re-weighting one tuple of the base TID.
fn scenarios(base: &Tid, count: usize) -> Vec<Tid> {
    (0..count)
        .map(|i| {
            let mut tid = base.clone();
            let tuple = TupleId((i % base.len()) as u32);
            tid.set_prob(tuple, BigRational::from_ratio(1, 2 + i as u64))
                .unwrap();
            tid
        })
        .collect()
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.sample_size(10);
    eprintln!(
        "  threads={} (irrelevant here: both contenders are single-core)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    // Domain 16 per the E21 spec: the walk dwarfs per-scenario plan
    // bookkeeping, so the measured gap is the kernel's, not the planner's.
    let base = bench_tid(3, 16, 17);
    let workload = scenarios(&base, 1000);
    g.throughput(Throughput::Elements(workload.len() as u64));

    // Both plans: φ9 compiles a d-D (seven leaves under a template), the
    // degenerate h_{3,0} a one-leaf OBDD — same kernel, different shapes.
    let cases = [
        ("dd", HQuery::new(phi9())),
        ("obdd", HQuery::new(BoolFn::var(4, 0))),
    ];
    for (kind, q) in &cases {
        let mut engine = PqeEngine::new();
        engine.evaluate_f64(q, &base).unwrap(); // pre-warm: compile once

        // Bit-identity first: the speedup below is only meaningful if
        // the two paths return the same bits.
        let scalar: Vec<f64> = workload
            .iter()
            .map(|tid| engine.evaluate_f64(q, tid).unwrap())
            .collect();
        let lane = engine.evaluate_batch_sharded_f64(q, &workload, 1).unwrap();
        assert_eq!(scalar, lane, "{kind}: lane kernel must be bit-identical");

        g.bench_with_input(BenchmarkId::new("scalar", kind), &workload, |b, w| {
            b.iter(|| {
                let total: f64 = w
                    .iter()
                    .map(|tid| engine.evaluate_f64(q, tid).unwrap())
                    .sum();
                black_box(total)
            });
        });
        g.bench_with_input(BenchmarkId::new("lane-batched", kind), &workload, |b, w| {
            b.iter(|| black_box(engine.evaluate_batch_sharded_f64(q, w, 1).unwrap()));
        });
        // The whole point: neither contender recompiled after the warm-up,
        // and only the lane path invoked the kernel.
        assert_eq!(engine.stats().cache_misses, 1, "{kind}: one compile, ever");
        assert!(engine.stats().lane_kernel_calls > 0, "{kind}");
        eprintln!(
            "  kernel/{kind}: {} lane-kernel calls, walk {} ns vs compile {} ns lifetime",
            engine.stats().lane_kernel_calls,
            engine.stats().walk_nanos,
            engine.stats().compile_nanos(),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
