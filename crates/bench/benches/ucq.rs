//! E25: the UCQ front door's three exact routes — Dalvi–Suciu lifted
//! inference, grounded-lineage OBDD compilation, and possible-worlds
//! brute force — on two safe queries and one unsafe query across the
//! domain sweep.
//!
//! The sweep itself is the measurement: lifted inference is polynomial
//! and covers every domain size. The grounded circuit follows the
//! query's hierarchy order (tuples grouped by the root variable's
//! constant), which keeps the safe queries' OBDDs linear in the
//! instance; the second safe query's root sits in `S1`'s second
//! position, so its row shows the grouping following the root. The
//! unsafe query has no root and stays exponential, so its grounding is
//! swept only to domain 8. Brute force enumerates `2^|D|` worlds, so it
//! only appears where the instance stays under `BRUTE_MAX_TUPLES`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use intext_bench::{bench_tid, DOMAIN_SWEEP};
use intext_query::{
    ground_circuit_probability, is_safe_ucq, lifted_probability, parse_query, ucq_brute_force,
};
use intext_tid::Vocabulary;
use std::hint::black_box;

/// Hierarchical, hence Dalvi–Suciu safe: all three routes apply.
const SAFE: &str = "R(x), S1(x,y)";
/// Hierarchical with its root `y` in `S1`'s second position: grounded
/// only, beside `SAFE`'s grounded row.
const SAFE_BY_SECOND: &str = "S1(x,y), T(y)";
/// The paper's canonical unsafe join: lifted inference refuses it, so
/// grounding (within budget) and brute force (within budget) are the
/// only exact routes.
const UNSAFE: &str = "R(x), S1(x,y), T(y)";

/// `2^14` worlds keeps the brute-force baseline around a millisecond;
/// past that it stops being a baseline and becomes the experiment.
const BRUTE_MAX_TUPLES: usize = 14;

/// Grounding the unsafe join past this domain crosses the exponential
/// wall: it has no root variable, and even in the hierarchy order one
/// compile at domain 16 builds 2.3M nodes in over two minutes.
const UNSAFE_GROUND_MAX_DOMAIN: u32 = 8;

fn bench_ucq(c: &mut Criterion) {
    let voc = Vocabulary::h(1);
    let safe = parse_query(SAFE, &voc).expect("SAFE parses");
    let safe_ucq = safe.to_ucq().expect("SAFE is a UCQ").normalize();
    assert!(is_safe_ucq(&safe_ucq), "SAFE must take the lifted route");
    let by_second = parse_query(SAFE_BY_SECOND, &voc).expect("SAFE_BY_SECOND parses");
    let by_second_ucq = by_second
        .to_ucq()
        .expect("SAFE_BY_SECOND is a UCQ")
        .normalize();
    assert!(is_safe_ucq(&by_second_ucq), "SAFE_BY_SECOND must be safe");
    let unsafe_q = parse_query(UNSAFE, &voc).expect("UNSAFE parses");
    let unsafe_ucq = unsafe_q.to_ucq().expect("UNSAFE is a UCQ").normalize();
    assert!(!is_safe_ucq(&unsafe_ucq), "UNSAFE must be refused");

    let mut g = c.benchmark_group("ucq");
    g.sample_size(10);
    for domain in DOMAIN_SWEEP {
        let tid = bench_tid(1, domain, 42);
        g.throughput(Throughput::Elements(tid.len() as u64));

        // The routes must agree before any of them is timed.
        let lifted = lifted_probability::<f64>(&safe_ucq, &tid).expect("safe query lifts");
        let grounded = ground_circuit_probability::<f64>(&safe, &tid);
        assert!(
            (lifted - grounded).abs() < 1e-9,
            "lifted {lifted} vs grounded {grounded} at domain {domain}"
        );
        let lifted_by_second =
            lifted_probability::<f64>(&by_second_ucq, &tid).expect("safe query lifts");
        let grounded_by_second = ground_circuit_probability::<f64>(&by_second, &tid);
        assert!(
            (lifted_by_second - grounded_by_second).abs() < 1e-9,
            "lifted {lifted_by_second} vs grounded {grounded_by_second} at domain {domain}"
        );
        assert!(
            lifted_probability::<f64>(&unsafe_ucq, &tid).is_none(),
            "unsafe query must not lift"
        );

        g.bench_with_input(BenchmarkId::new("safe_lifted", domain), &tid, |b, tid| {
            b.iter(|| black_box(lifted_probability::<f64>(&safe_ucq, tid).unwrap()));
        });
        g.bench_with_input(BenchmarkId::new("safe_grounded", domain), &tid, |b, tid| {
            b.iter(|| black_box(ground_circuit_probability::<f64>(&safe, tid)));
        });
        g.bench_with_input(
            BenchmarkId::new("safe_by_second_grounded", domain),
            &tid,
            |b, tid| {
                b.iter(|| black_box(ground_circuit_probability::<f64>(&by_second, tid)));
            },
        );
        if tid.len() <= BRUTE_MAX_TUPLES {
            let brute = ucq_brute_force::<f64>(&safe, &tid).expect("within the world budget");
            assert!((lifted - brute).abs() < 1e-9);
            g.bench_with_input(BenchmarkId::new("safe_brute", domain), &tid, |b, tid| {
                b.iter(|| black_box(ucq_brute_force::<f64>(&safe, tid).unwrap()));
            });
        }
        if domain <= UNSAFE_GROUND_MAX_DOMAIN {
            let p = ground_circuit_probability::<f64>(&unsafe_q, &tid);
            if tid.len() <= BRUTE_MAX_TUPLES {
                let brute =
                    ucq_brute_force::<f64>(&unsafe_q, &tid).expect("within the world budget");
                assert!((p - brute).abs() < 1e-9);
                g.bench_with_input(BenchmarkId::new("unsafe_brute", domain), &tid, |b, tid| {
                    b.iter(|| black_box(ucq_brute_force::<f64>(&unsafe_q, tid).unwrap()));
                });
            }
            g.bench_with_input(
                BenchmarkId::new("unsafe_grounded", domain),
                &tid,
                |b, tid| {
                    b.iter(|| black_box(ground_circuit_probability::<f64>(&unsafe_q, tid)));
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_ucq);
criterion_main!(benches);
