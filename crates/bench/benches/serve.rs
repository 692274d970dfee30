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
//!
//! E28: what decoding a request costs (`wire` group). A served read
//! decodes its whole TID — every tuple and its probability — before
//! the engine sees it, so on a cached artifact decoding can outweigh
//! the walk. `decode_request` decodes an `EvaluateF64` on the same
//! domain-8 TID and a 16-scenario `BatchF64` of re-weightings of it,
//! the shapes of perfbench's hot-read reads and batches; `rational_new`
//! rebuilds that TID's probabilities from their parts, the reduction
//! every decoded probability goes through. Each decoded request is
//! asserted to re-encode to its own bytes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use intext_bench::bench_tid;
use intext_boolfn::phi9;
use intext_engine::PqeEngine;
use intext_numeric::BigRational;
use intext_query::{HQuery, Query};
use intext_serve::wire::{decode_request, encode_request};
use intext_serve::{Request, ServeConfig, Server};
use intext_tid::random_tid;
use rand::{rngs::StdRng, SeedableRng};
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

/// Scenarios per batch request, as in perfbench's hot-read batches.
const BATCH_SCENARIOS: u64 = 16;

fn bench_wire_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let q = Query::from(HQuery::new(phi9()));
    let tid = bench_tid(3, 8, 24);
    let tids = (0..BATCH_SCENARIOS)
        .map(|seed| random_tid(tid.database().clone(), 10, &mut StdRng::seed_from_u64(seed)))
        .collect();
    let requests = [
        (
            "evaluate_f64",
            Request::EvaluateF64 {
                q: q.clone(),
                tid: tid.clone(),
            },
        ),
        ("batch_f64", Request::BatchF64 { q, tids, shards: 2 }),
    ];
    for (name, request) in &requests {
        let bytes = encode_request(1, request);
        let (_, decoded) = decode_request(&bytes).expect("an encoded request decodes");
        assert_eq!(
            encode_request(1, &decoded),
            bytes,
            "{name} did not round-trip"
        );
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_function(BenchmarkId::new("decode_request", name), |b| {
            b.iter(|| decode_request(black_box(&bytes)).expect("decodes"));
        });
    }
    let parts: Vec<_> = tid
        .database()
        .iter()
        .map(|(id, _)| (tid.prob(id).numer().clone(), tid.prob(id).denom().clone()))
        .collect();
    g.throughput(Throughput::Elements(parts.len() as u64));
    g.bench_function(BenchmarkId::new("rational_new", parts.len()), |b| {
        b.iter(|| {
            for (num, den) in &parts {
                black_box(BigRational::new(num.clone(), den.clone()));
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_serve_throughput, bench_wire_decode);
criterion_main!(benches);
