//! E18 + E19: what sharding and the bounded cache buy (and cost).
//!
//! **E18 — sharded vs sequential batch speedup.** One φ9 d-D circuit is
//! compiled once for a domain-16 database (≥ 650 tuples), then a
//! 1000-scenario re-weighting workload is evaluated by a scalar
//! `evaluate_f64` loop (`sequential`) and by the batch executor
//! (`evaluate_batch_sharded_f64`) on 1/2/4/8 shards. Every scenario is a
//! pure walk of the *same* `Arc`-shared circuit. The gap between
//! `sequential` and `sharded/1` is the lane kernel (E21), not threads:
//! one shard runs inline on the calling thread. Beyond one shard the
//! speedup is bounded by the hardware threads — the printed `threads=`
//! line says which regime the numbers were measured in.
//!
//! **E19 — eviction rate vs cache budget.** The same engine evaluates a
//! round-robin workload over four database shapes (domains 2/4/6/8)
//! under shrinking gate budgets: unbounded (every shape stays cached,
//! zero evictions), all-four-fit, two-fit, and one-fits. As the budget
//! tightens the LRU thrashes and every hit turns into a
//! recompile — the measured time per batch rises accordingly, and the
//! asserted reconciliation `cache_misses = distinct shapes +
//! post-eviction recompiles` pins the eviction counters to the compile
//! counts while `cache_gates() ≤ budget` holds throughout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use intext_bench::bench_tid;
use intext_boolfn::phi9;
use intext_engine::{EngineConfig, PqeEngine};
use intext_numeric::BigRational;
use intext_query::HQuery;
use intext_tid::{Tid, TupleId};
use std::hint::black_box;

/// E18's workload: `count` probability scenarios over one database
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

fn bench_sharded_speedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharding");
    g.sample_size(10);
    let q = HQuery::new(phi9());
    // Domain ≥ 16 per E18: large enough that the per-scenario circuit
    // walk dwarfs the per-scenario plan/key bookkeeping.
    let base = bench_tid(3, 16, 17);
    let workload = scenarios(&base, 1000);
    g.throughput(Throughput::Elements(workload.len() as u64));
    eprintln!(
        "  threads={} (speedup is bounded by hardware parallelism)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    // Sequential baseline: one scalar cached walk per scenario on the
    // calling thread, through the single-query `evaluate_f64`.
    let mut engine = PqeEngine::new();
    engine.evaluate_f64(&q, &base).unwrap(); // pre-warm: compile once
    g.bench_with_input(BenchmarkId::new("sequential", 0), &workload, |b, w| {
        b.iter(|| {
            let total: f64 = w
                .iter()
                .map(|tid| engine.evaluate_f64(&q, tid).unwrap())
                .sum();
            black_box(total)
        });
    });
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("sharded", shards), &workload, |b, w| {
            b.iter(|| black_box(engine.evaluate_batch_sharded_f64(&q, w, shards).unwrap()));
        });
    }
    // The whole point: the batch never recompiled after the warm-up.
    assert_eq!(engine.stats().cache_misses, 1, "one compile, ever");
    g.finish();
}

fn bench_eviction_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("eviction");
    g.sample_size(10);
    let q = HQuery::new(phi9());
    // Four distinct database shapes, visited round-robin: the adversary
    // workload for an LRU (the victim is always the next shape needed).
    let shapes: Vec<Tid> = [2u32, 4, 6, 8]
        .iter()
        .map(|&d| bench_tid(3, d, 23))
        .collect();
    let workload: Vec<Tid> = (0..32).map(|i| shapes[i % shapes.len()].clone()).collect();

    // Probe per-shape artifact sizes with an unbounded engine.
    let mut probe = PqeEngine::new();
    let mut sizes = Vec::new();
    for shape in &shapes {
        let before = probe.cache_gates();
        probe.evaluate_f64(&q, shape).unwrap();
        sizes.push(probe.cache_gates() - before);
    }
    let all: usize = sizes.iter().sum();
    let two_largest: usize = sizes[sizes.len() - 2] + sizes[sizes.len() - 1];
    let largest: usize = *sizes.last().unwrap();

    for (label, budget) in [
        ("unbounded", None),
        ("all-fit", Some(all)),
        ("two-fit", Some(two_largest)),
        ("one-fits", Some(largest)),
    ] {
        let mut engine = PqeEngine::with_config(EngineConfig {
            cache_gate_budget: budget,
            ..EngineConfig::default()
        });
        g.bench_with_input(
            BenchmarkId::new(label, budget.unwrap_or(0)),
            &workload,
            |b, w| {
                b.iter(|| black_box(engine.evaluate_batch_sharded_f64(&q, w, 2).unwrap()));
            },
        );
        let stats = engine.stats().clone();
        if let Some(budget) = budget {
            assert!(engine.cache_gates() <= budget, "{label}: budget is hard");
        } else {
            assert_eq!(stats.cache_evictions, 0, "unbounded never evicts");
        }
        // Eviction counters reconcile with compile counts: every miss
        // beyond the four distinct shapes' first compiles is a
        // post-eviction recompile, and a recompile needs a prior
        // eviction of that key.
        let recompiles = stats.cache_misses - shapes.len() as u64;
        assert!(
            recompiles <= stats.cache_evictions || stats.cache_evictions == 0 && recompiles == 0,
            "{label}: {recompiles} recompiles need {} evictions",
            stats.cache_evictions
        );
        eprintln!(
            "  eviction/{label:<10} {} misses, {} evictions over {} queries",
            stats.cache_misses, stats.cache_evictions, stats.queries
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sharded_speedup, bench_eviction_rate);
criterion_main!(benches);
