//! E20: what warm-starting from the persistent store buys — a cold
//! evaluation (classify + compile + walk) against load-from-disk
//! (read + decode + revalidate + walk) against an in-memory cache hit
//! (pure walk), for φ9's d-D at domain 16. The gap between the last two
//! is the price of deserialization + structural revalidation; the gap
//! between the first two is what a replica *saves* by importing instead
//! of compiling. See `EXPERIMENTS.md` (E20) for measured numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use intext_bench::bench_tid;
use intext_boolfn::phi9;
use intext_engine::PqeEngine;
use intext_query::HQuery;
use std::hint::black_box;

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    let q = HQuery::new(phi9());
    let domain = 16;
    let tid = bench_tid(3, domain, 17);

    // Compile once, export once; the blob doubles as the on-disk file.
    let mut warm = PqeEngine::new();
    warm.evaluate_f64(&q, &tid).unwrap();
    let blob = warm.export_artifact(&q, tid.database()).unwrap();
    let dir = std::env::temp_dir().join("intext-bench-store");
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    let path = dir.join(format!("e20-domain{domain}.intx"));
    std::fs::write(&path, &blob).expect("blob is writable");
    println!(
        "store: domain {domain}, {} leaf OBDD nodes, {} bytes on disk",
        warm.cache_gates(),
        blob.len()
    );

    // Cold: a fresh engine per iteration pays the full compilation.
    g.bench_with_input(
        BenchmarkId::new("cold_compile_eval", domain),
        &tid,
        |b, tid| {
            b.iter(|| {
                let mut engine = PqeEngine::new();
                black_box(engine.evaluate_f64(&q, tid).unwrap())
            });
        },
    );

    // Load: a fresh engine per iteration reads the file, decodes and
    // revalidates the artifact, then walks it — zero compiles.
    g.bench_with_input(
        BenchmarkId::new("load_from_disk_eval", domain),
        &tid,
        |b, tid| {
            b.iter(|| {
                let bytes = std::fs::read(&path).expect("blob persisted above");
                let mut engine = PqeEngine::new();
                let report = engine.import_artifact(&bytes).unwrap();
                debug_assert_eq!(report.artifacts, 1);
                let p = engine.evaluate_f64(&q, tid).unwrap();
                debug_assert_eq!(engine.stats().cache_misses, 0);
                black_box(p)
            });
        },
    );

    // Hit: the warmed engine's steady state — one linear walk.
    g.bench_with_input(
        BenchmarkId::new("cache_hit_eval", domain),
        &tid,
        |b, tid| {
            b.iter(|| black_box(warm.evaluate_f64(&q, tid).unwrap()));
        },
    );
    assert_eq!(warm.stats().cache_misses, 1, "warm engine never recompiles");

    g.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
