//! E16: Proposition 3.7 — lineage OBDD construction for degenerate
//! `H`-queries should be linear in the database. Sweeps the domain size
//! and reports construction time (throughput = tuples).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use intext_bench::{bench_tid, DOMAIN_SWEEP};
use intext_boolfn::BoolFn;
use intext_lineage::{compile_degenerate_obdd, compile_degenerate_obdd_apply};
use std::hint::black_box;

fn bench_obdd(c: &mut Criterion) {
    let mut g = c.benchmark_group("obdd_lineage");
    g.sample_size(20);
    // ψ = (h0 ∧ ¬h2) ∨ h3, degenerate (independent of variable 1).
    let psi = {
        let h0 = BoolFn::var(4, 0);
        let h2 = BoolFn::var(4, 2);
        let h3 = BoolFn::var(4, 3);
        &(&h0 & &!&h2) | &h3
    };
    for domain in DOMAIN_SWEEP {
        let tid = bench_tid(3, domain, 7);
        g.throughput(Throughput::Elements(tid.len() as u64));
        g.bench_with_input(BenchmarkId::new("construct", domain), &tid, |b, tid| {
            b.iter(|| black_box(compile_degenerate_obdd(&psi, tid.database()).unwrap()));
        });
        // Ablation: textbook per-h OBDDs + multi-way apply instead of the
        // product-automaton unrolling (same output function).
        g.bench_with_input(
            BenchmarkId::new("construct_apply_ablation", domain),
            &tid,
            |b, tid| {
                b.iter(|| black_box(compile_degenerate_obdd_apply(&psi, tid.database()).unwrap()));
            },
        );
        let lin = compile_degenerate_obdd(&psi, tid.database()).unwrap();
        g.bench_with_input(
            BenchmarkId::new("probability_f64", domain),
            &tid,
            |b, tid| {
                b.iter(|| black_box(lin.probability::<f64>(tid)));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_obdd);
criterion_main!(benches);
