//! Section 2's tractability claim: probability computation on a d-D is
//! one linear bottom-up pass — measured on compiled `φ9` lineages of
//! growing size, in `f64`, in exact-rational arithmetic, and exactly by
//! residue arithmetic (one modular pass per prime block and one CRT,
//! E27).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use intext_bench::{bench_tid, DOMAIN_SWEEP};
use intext_boolfn::phi9;
use intext_core::compile_dd;
use intext_numeric::{BigRational, ResidueCrt};
use intext_tid::TupleId;
use std::hint::black_box;

fn bench_probability(c: &mut Criterion) {
    let mut g = c.benchmark_group("dd_probability");
    g.sample_size(20);
    for domain in DOMAIN_SWEEP {
        let tid = bench_tid(3, domain, 47);
        let dd = compile_dd(&phi9(), tid.database()).unwrap();
        g.throughput(Throughput::Elements(dd.size() as u64));
        g.bench_with_input(BenchmarkId::new("f64", domain), &tid, |b, tid| {
            b.iter(|| black_box(dd.probability::<f64>(tid)));
        });
        g.bench_with_input(
            BenchmarkId::new("exact_rational", domain),
            &tid,
            |b, tid| {
                b.iter(|| black_box(dd.probability::<BigRational>(tid)));
            },
        );
        // The residue walk's plan: how many primes and blocks this
        // domain's denominator product needs.
        let dens = dd
            .support_vars()
            .iter()
            .map(|&v| tid.prob(TupleId(v)).denom());
        let crt = ResidueCrt::new(dens).expect("φ9's D fits the prime table");
        println!(
            "exact_residue/{domain}: {} support tuples, {} primes in {} block(s)",
            dd.support_vars().len(),
            crt.primes(),
            crt.blocks()
        );
        g.bench_with_input(BenchmarkId::new("exact_residue", domain), &tid, |b, tid| {
            b.iter(|| black_box(dd.exact_probability(tid)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_probability);
criterion_main!(benches);
