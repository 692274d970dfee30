//! E24: what the serve layer costs — and buys — over calling the
//! engine directly.
//!
//! One φ9 d-D circuit, compiled once, served from one [`Server`] to
//! concurrent clients. The sweep crosses worker count {1, 2, 4} with
//! admission-queue depth {8, 64} and measures end-to-end request
//! throughput (submit → queue → worker walk → resolve) for a
//! 64-request f64 workload issued by 4 client threads, against the
//! `direct` baseline of the same 64 evaluations on a bare engine.
//!
//! What to expect: the per-request serve overhead is one queue
//! round-trip (a mutex + condvar each way) plus one write-locked
//! prepare (plan and cache probe) — microseconds — so at domain 8, where a cached circuit walk is itself
//! tens of microseconds, the single-worker server should sit within a
//! small factor of `direct`, and worker counts beyond the hardware
//! thread count should change nothing. On a single-thread container
//! (the printed `threads=` line says which regime the numbers are
//! from) *no* worker count can beat `direct`: the bench then measures
//! pure serving overhead, which is the honest number for admission
//! control at zero parallelism. Queue depth should be invisible in an
//! un-saturated sweep — it only matters at overload, which the
//! differential tests (not a throughput bench) pin down.
//!
//! Every response is asserted bit-identical to the baseline as the
//! bench runs, so the numbers can never come from a wrong answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use intext_bench::bench_tid;
use intext_boolfn::phi9;
use intext_engine::PqeEngine;
use intext_query::HQuery;
use intext_serve::{ServeConfig, Server};
use std::hint::black_box;
use std::thread;

/// Requests per measured iteration (4 clients × 16 requests).
const REQUESTS: usize = 64;
const CLIENTS: usize = 4;

fn bench_serve_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.throughput(Throughput::Elements(REQUESTS as u64));
    eprintln!(
        "  threads={} (a 1-thread container measures serving overhead, not parallel speedup)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let q = HQuery::new(phi9());
    let tid = bench_tid(3, 8, 24);

    // Baseline: the same workload against a bare engine on the calling
    // thread — no queue, no locks, no worker handoff.
    let mut engine = PqeEngine::new();
    let expected = engine.evaluate_f64(&q, &tid).unwrap().to_bits();
    g.bench_with_input(BenchmarkId::new("direct", 0), &tid, |b, tid| {
        b.iter(|| {
            for _ in 0..REQUESTS {
                let p = engine.evaluate_f64(&q, tid).unwrap();
                assert_eq!(p.to_bits(), expected);
                black_box(p);
            }
        });
    });

    for workers in [1usize, 2, 4] {
        for queue_capacity in [8usize, 64] {
            let server = Server::start(ServeConfig {
                workers,
                queue_capacity,
                ..ServeConfig::default()
            })
            .expect("default engine config is valid");
            let handle = server.handle();
            // Pre-warm: compile once, so iterations measure serving.
            handle.evaluate_f64(&q, &tid).unwrap();
            let id = BenchmarkId::new(format!("workers/{workers}"), queue_capacity);
            g.bench_with_input(id, &tid, |b, tid| {
                b.iter(|| {
                    thread::scope(|scope| {
                        for _ in 0..CLIENTS {
                            let handle = handle.clone();
                            let q = &q;
                            scope.spawn(move || {
                                for _ in 0..REQUESTS / CLIENTS {
                                    let p = handle.evaluate_f64(q, tid).unwrap();
                                    assert_eq!(p.to_bits(), expected, "served bits diverged");
                                    black_box(p);
                                }
                            });
                        }
                    });
                });
            });
            let stats = server.shutdown();
            assert_eq!(
                stats.cache_misses, 1,
                "iterations must re-walk, not recompile"
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
