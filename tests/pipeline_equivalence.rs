//! E9 (Theorem 5.2 / Corollary 5.3): the three evaluation strategies —
//! brute-force possible worlds, extensional lifted inference, and the
//! paper's intensional d-D pipeline — agree **exactly** on every safe
//! query, across random databases.

use intext::boolfn::{enumerate, phi9, small, BoolFn};
use intext::circuits::{verify, EvalScratch, LANES};
use intext::core::{classify, compile_dd, CompileError, CompiledLineage};
use intext::engine::{Plan, PqeEngine};
use intext::extensional::{pqe_extensional, ExtensionalError};
use intext::lineage::compile_degenerate_obdd;
use intext::numeric::BigRational;
use intext::query::{pqe_brute_force, HQuery};
use intext::tid::{random_database, random_tid, DbGenConfig, Tid, TupleId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_tid(k: u8, domain: u32, seed: u64) -> Tid {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_database(
        &DbGenConfig {
            k,
            domain_size: domain,
            density: 0.7,
            prob_denominator: 8,
        },
        &mut rng,
    );
    random_tid(db, 8, &mut rng)
}

#[test]
fn all_safe_monotone_k3_queries_agree_across_engines() {
    // Every safe monotone function on V = {0..3} (the phi9 arena):
    // extensional == intensional == brute force, with exact rationals.
    let tid = sample_tid(3, 2, 42);
    let mut safe = 0u32;
    let mut unsafe_count = 0u32;
    for t in enumerate::monotone_tables(4) {
        let phi = BoolFn::from_table_u64(4, t);
        let q = HQuery::new(phi.clone());
        match pqe_extensional(&q, &tid) {
            Ok(ext) => {
                let dd = compile_dd(&phi, tid.database()).expect("safe implies e=0");
                let int: BigRational = dd.probability(&tid);
                assert_eq!(ext, int, "extensional vs intensional, t={t:#x}");
                let brute = pqe_brute_force(&q, &tid).unwrap();
                assert_eq!(int, brute, "intensional vs brute force, t={t:#x}");
                safe += 1;
            }
            Err(ExtensionalError::NotSafe) => {
                // The d-D pipeline must refuse these too (Cor 3.9).
                assert!(matches!(
                    compile_dd(&phi, tid.database()),
                    Err(CompileError::NonZeroEuler(_))
                ));
                unsafe_count += 1;
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(safe > 20, "checked {safe} safe queries");
    assert!(unsafe_count > 20, "checked {unsafe_count} unsafe queries");
}

#[test]
fn non_ucq_zero_euler_queries_beat_the_extensional_engine() {
    // The paper's headline: H-queries outside H+ (non-monotone) with
    // e = 0 are handled intensionally even though the extensional
    // dichotomy does not even apply to them.
    let tid = sample_tid(3, 2, 7);
    let mut rng = StdRng::seed_from_u64(1234);
    let mut checked = 0;
    while checked < 8 {
        let t = {
            use rand::Rng;
            rng.random::<u64>() & small::full_mask(4)
        };
        if small::euler(4, t) != 0 || small::is_monotone(4, t) {
            continue;
        }
        let phi = BoolFn::from_table_u64(4, t);
        let q = HQuery::new(phi.clone());
        assert_eq!(
            pqe_extensional(&q, &tid).unwrap_err(),
            ExtensionalError::NotMonotone
        );
        let dd = compile_dd(&phi, tid.database()).expect("e = 0 compiles");
        let brute = pqe_brute_force(&q, &tid).unwrap();
        assert_eq!(dd.probability::<BigRational>(&tid), brute, "t={t:#x}");
        checked += 1;
    }
}

/// An artifact and its plugged circuit are the same d-D, walked to the
/// same answers: `check_dd` passes, the exact values are equal, and the
/// scalar `f64` and [`LANES`]-lane results are bit-equal (`DESIGN.md`
/// §6). `scenarios` fill the lanes; the first is the scalar scenario.
fn assert_artifact_is_its_circuit(artifact: &CompiledLineage, scenarios: &[Tid], what: &str) {
    let (circuit, root) = artifact.to_circuit();
    verify::check_dd(&circuit, root).unwrap_or_else(|v| panic!("d-D violation for {what}: {v}"));
    let tid = &scenarios[0];
    let prob = |v| tid.prob(TupleId(v)).clone();
    assert_eq!(
        artifact.probability::<BigRational>(tid),
        circuit.probability(root, prob, &mut EvalScratch::new()),
        "exact, {what}"
    );
    let prob_f64 = |v| tid.prob_f64(TupleId(v));
    assert_eq!(
        artifact.probability::<f64>(tid).to_bits(),
        circuit
            .probability(root, prob_f64, &mut EvalScratch::new())
            .to_bits(),
        "f64, {what}"
    );
    let mut probs = vec![[0.0; LANES]; tid.len()];
    for (lane, scenario) in scenarios.iter().cycle().take(LANES).enumerate() {
        for v in 0..tid.len() as u32 {
            probs[v as usize][lane] = scenario.prob_f64(TupleId(v));
        }
    }
    let mut scratch = EvalScratch::new();
    let lanes = artifact.walk(|v| probs[v as usize], &mut scratch);
    let via_circuit = circuit.probability(root, |v| probs[v as usize], &mut scratch);
    assert_eq!(
        lanes.map(f64::to_bits),
        via_circuit.map(f64::to_bits),
        "lanes, {what}"
    );
}

#[test]
fn compiled_circuits_are_verified_dds_on_small_instances() {
    // Structural decomposability + semantic determinism, checked
    // exhaustively (few variables on a 1-element domain).
    let tid = sample_tid(3, 1, 99);
    for t in [phi9().table_u64(), 0x9669_u64, 0x6996_u64] {
        if small::euler(4, t) != 0 {
            continue;
        }
        let phi = BoolFn::from_table_u64(4, t);
        let dd = compile_dd(&phi, tid.database()).unwrap();
        assert_artifact_is_its_circuit(&dd, std::slice::from_ref(&tid), &format!("t={t:#x}"));
    }
    // Every cacheable φ with k ≤ 2 — the one-leaf OBDDs of the Obdd
    // plan and the templates of the DdCircuit plan — on seeded random
    // TIDs, the lanes filled from re-weighted scenarios.
    let engine = PqeEngine::new();
    let mut cacheable = 0;
    for k in 1..=2u8 {
        let tid = sample_tid(k, 2, 500 + u64::from(k));
        let scenarios: Vec<Tid> = (0..LANES)
            .map(|i| {
                let mut scenario = tid.clone();
                let tuple = TupleId((i % tid.len()) as u32);
                scenario
                    .set_prob(tuple, BigRational::from_ratio(1, 3 + i as u64))
                    .unwrap();
                scenario
            })
            .collect();
        let n = k + 1;
        for t in 0..(1u64 << (1u32 << n)) {
            let phi = BoolFn::from_table_u64(n, t);
            let artifact = match engine.plan(HQuery::new(phi.clone()), &tid).unwrap() {
                Plan::Obdd => CompiledLineage::from(
                    compile_degenerate_obdd(&phi, tid.database()).expect("degenerate"),
                ),
                Plan::DdCircuit => compile_dd(&phi, tid.database()).expect("e(φ) = 0"),
                _ => continue,
            };
            assert_artifact_is_its_circuit(&artifact, &scenarios, &format!("k={k}, t={t:#x}"));
            cacheable += 1;
        }
    }
    assert_eq!(cacheable, 76, "cacheable φ with k ≤ 2");
}

#[test]
fn classification_matches_engine_behaviour() {
    let tid = sample_tid(2, 2, 3);
    for t in 0..256u64 {
        let phi = BoolFn::from_table_u64(3, t);
        let region = classify(&phi);
        let compiles = compile_dd(&phi, tid.database()).is_ok();
        assert_eq!(
            compiles,
            region.is_tractable(),
            "region {region:?} vs pipeline for t={t:#x}"
        );
        if phi.is_monotone() {
            let q = HQuery::new(phi.clone());
            let ext_ok = pqe_extensional(&q, &tid).is_ok();
            assert_eq!(ext_ok, region.is_tractable(), "extensional for t={t:#x}");
        }
    }
    // Census sanity at k=2: 70 zero-Euler functions, of which the
    // degenerate ones form the OBDD region.
    let zero_euler = (0..256u64).filter(|&t| small::euler(3, t) == 0).count();
    assert_eq!(zero_euler, 70);
    let tractable = (0..256u64)
        .filter(|&t| classify(&BoolFn::from_table_u64(3, t)).is_tractable())
        .count();
    assert_eq!(tractable, zero_euler, "tractable == zero Euler at k=2");
}

#[test]
fn growing_domains_stay_consistent() {
    // phi9 across increasing domain sizes: intensional == extensional
    // (brute force is out of reach beyond tiny databases — that is the
    // point of the paper).
    for (domain, seed) in [(2u32, 11u64), (3, 12), (4, 13)] {
        let tid = sample_tid(3, domain, seed);
        let q = HQuery::new(phi9());
        let ext = pqe_extensional(&q, &tid).unwrap();
        let dd = compile_dd(&phi9(), tid.database()).unwrap();
        assert_eq!(ext, dd.probability::<BigRational>(&tid), "domain {domain}");
    }
}
