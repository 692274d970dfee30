//! E15: the dichotomy shape — brute force (exponential in tuples)
//! against the two polynomial engines on the same inputs. Each
//! polynomial sample is one-shot: lifted inference from scratch, or a
//! fresh d-D compile plus one walk.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use intext_bench::bench_tid;
use intext_boolfn::phi9;
use intext_core::compile_dd;
use intext_extensional::pqe_extensional_f64;
use intext_query::{pqe_brute_force, HQuery};
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("dichotomy_shape");
    g.sample_size(10);
    // Brute force only fits the smallest instances.
    for domain in [1u32, 2] {
        let tid = bench_tid(3, domain, 31);
        if tid.len() > 22 {
            continue;
        }
        let q = HQuery::new(phi9());
        g.bench_with_input(BenchmarkId::new("brute_force", domain), &tid, |b, tid| {
            b.iter(|| black_box(pqe_brute_force::<f64>(&q, tid).unwrap()));
        });
    }
    for domain in [1u32, 2, 4, 8, 16] {
        let tid = bench_tid(3, domain, 31);
        let q = HQuery::new(phi9());
        g.bench_with_input(BenchmarkId::new("extensional", domain), &tid, |b, tid| {
            b.iter(|| black_box(pqe_extensional_f64(&q, tid).unwrap()));
        });
        g.bench_with_input(BenchmarkId::new("intensional", domain), &tid, |b, tid| {
            b.iter(|| {
                let dd = compile_dd(&phi9(), tid.database()).unwrap();
                black_box(dd.probability::<f64>(tid))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
