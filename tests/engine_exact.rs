//! The exact artifact route's edge cases, through the engine and the
//! server.
//!
//! An exact answer on a cached artifact is one modular walk per block
//! of word-size primes and one CRT (`CompiledLineage::exact_probability`,
//! DESIGN.md §6). Its value must be the `BigRational` walk's in every
//! corner of that scheme:
//!
//! * tuples at `p = 0` and `p = 1`;
//! * a denominator equal to a table prime, which the plan must skip;
//! * a denominator product `D` that needs several prime blocks;
//! * a `D` wider than the whole table, which takes the `BigRational`
//!   walk instead.
//!
//! In each case `PqeEngine::evaluate` equals
//! `CompiledLineage::probability::<BigRational>` (and `pqe_brute_force`
//! on instances of at most 20 tuples), and a served `Evaluate`, a served
//! exact `Batch` and a 2-shard `evaluate_batch_sharded` return the same
//! rationals.

use std::sync::OnceLock;

use intext_boolfn::{phi9, BoolFn};
use intext_core::compile_dd;
use intext_engine::{Plan, PqeEngine};
use intext_numeric::{BigInt, BigRational, BigUint, ResidueCrt, RESIDUE_BLOCKS, RESIDUE_LANES};
use intext_query::{pqe_brute_force, HQuery};
use intext_serve::{listen_tcp, RemoteClient, Request, Response, ServeConfig, Server};
use intext_tid::{complete_database, Database, Tid, TupleId};

/// The first prime of the residue table: the largest prime below 2⁶².
const TABLE_PRIME: u64 = (1 << 62) - 57;

/// `num / den` from wide parts.
fn ratio(num: BigUint, den: BigUint) -> BigRational {
    BigRational::new(BigInt::from(num), den)
}

/// A TID on `db` whose tuple `i` has probability `prob(i)`.
fn tid_with(db: Database, prob: impl Fn(u64) -> BigRational) -> Tid {
    let probs = (0..db.len() as u64).map(prob).collect();
    Tid::new(db, probs).unwrap()
}

/// The residue plan of `tid`'s probabilities, as the walk forms it.
fn plan(tid: &Tid) -> Option<ResidueCrt> {
    ResidueCrt::new((0..tid.len()).map(|i| tid.prob(TupleId(i as u32)).denom()))
}

/// One case: the engine's exact answer is the `BigRational` walk's (and
/// brute force's on small instances), and the engine routed it through
/// a cached artifact.
fn check(q: &HQuery, tid: &Tid) -> BigRational {
    let mut engine = PqeEngine::new();
    let plan = engine.plan(q.clone(), tid).unwrap();
    assert!(
        matches!(plan, Plan::DdCircuit | Plan::Obdd),
        "an artifact route, got {plan:?}"
    );
    let answer = engine.evaluate(q.clone(), tid).unwrap();
    let compiled = compile_dd(q.phi(), tid.database()).unwrap();
    assert_eq!(answer, compiled.probability::<BigRational>(tid));
    assert_eq!(answer, compiled.exact_probability(tid));
    // A cache hit walks the cached artifact: the same rational.
    assert_eq!(engine.evaluate(q.clone(), tid).unwrap(), answer);
    if tid.len() <= 20 {
        assert_eq!(answer, pqe_brute_force(q, tid).unwrap(), "brute force");
    }
    assert!(answer.is_probability());
    answer
}

/// One named case: its query, TID and engine answer.
type Case = (&'static str, HQuery, Tid, BigRational);

/// The cases, checked once and shared by both tests.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(checked_cases)
}

fn checked_cases() -> Vec<Case> {
    let phi9 = HQuery::new(phi9());
    let mut out = Vec::new();

    // p = 0 and p = 1 beside ordinary fractions: D counts their
    // denominator 1, and the walk multiplies by residues 0 and 1.
    let tid = tid_with(complete_database(3, 2), |i| match i {
        0 | 6 => BigRational::zero(),
        9 => BigRational::one(),
        _ => BigRational::from_ratio(i as i64 % 5 + 1, 7),
    });
    assert_eq!(tid.len(), 16);
    let answer = check(&phi9, &tid);
    out.push(("p = 0 and p = 1", phi9.clone(), tid, answer));

    // A denominator that is the table's first prime: that prime divides
    // D, so the plan must leave it out and rebuild from the next ones.
    let tid = tid_with(complete_database(3, 2), |i| {
        if i == 3 {
            ratio(BigUint::from(TABLE_PRIME / 3), BigUint::from(TABLE_PRIME))
        } else {
            BigRational::from_ratio(i as i64 % 3 + 1, 4)
        }
    });
    assert!(plan(&tid).is_some());
    let answer = check(&phi9, &tid);
    out.push(("a table prime as a denominator", phi9.clone(), tid, answer));

    // Complete domain 3 with denominators near 2⁶⁰: 33 tuples, a D of
    // about 1,980 bits, nine blocks of primes.
    let tid = tid_with(complete_database(3, 3), |i| {
        let den = (1u64 << 60) - 2 * i - 1;
        ratio(BigUint::from(den / (i + 2)), BigUint::from(den))
    });
    assert_eq!(tid.len(), 33);
    let blocks = plan(&tid).unwrap().blocks();
    assert!(blocks > 1, "{blocks} block(s)");
    let answer = check(&phi9, &tid);
    out.push(("several prime blocks", phi9.clone(), tid, answer));

    // A D wider than the whole prime table: the BigRational walk.
    let k1 = HQuery::new(BoolFn::from_table_u64(2, 0b1010));
    let table_bits = 61 * (RESIDUE_BLOCKS * RESIDUE_LANES) as u64;
    let tid = tid_with(complete_database(1, 4), |i| {
        let den = BigUint::one()
            .shl_bits(table_bits / 24 + 8)
            .mul_add_u64(1, 2 * i + 1);
        ratio(BigUint::from(i + 1), den)
    });
    assert_eq!(tid.len(), 24);
    assert!(plan(&tid).is_none(), "D must outgrow the table");
    let answer = check(&k1, &tid);
    out.push(("D wider than the table", k1, tid, answer));
    out
}

#[test]
fn exact_answers_equal_the_rational_walk_in_every_corner() {
    // Every case is a genuine fraction; the corner cases are not
    // trivial zeros or ones.
    for (name, _, _, answer) in cases() {
        assert!(!answer.is_zero() && !answer.is_one(), "{name}: {answer}");
    }
}

#[test]
fn served_and_sharded_exact_answers_carry_the_same_rationals() {
    let cases = cases();
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let listener = listen_tcp(server.handle(), "127.0.0.1:0").unwrap();
    let mut client = RemoteClient::connect(listener.tcp_addr().unwrap()).unwrap();
    for (name, q, tid, answer) in cases {
        match client
            .request(&Request::Evaluate {
                q: q.clone().into(),
                tid: tid.clone(),
            })
            .unwrap()
            .unwrap()
        {
            Response::Exact(p) => assert_eq!(&p, answer, "{name}: served Evaluate"),
            other => panic!("{name}: expected an exact answer, got {other:?}"),
        }
    }
    // The φ9 cases as one batch: one run per database shape.
    let (tids, answers): (Vec<Tid>, Vec<BigRational>) = cases
        .iter()
        .filter(|(_, q, _, _)| q.phi() == &phi9())
        .map(|(_, _, tid, answer)| (tid.clone(), answer.clone()))
        .unzip();
    assert_eq!(tids.len(), 3);
    let q = HQuery::new(phi9());
    match client
        .request(&Request::Batch {
            q: q.clone().into(),
            tids: tids.clone(),
        })
        .unwrap()
        .unwrap()
    {
        Response::Batch(ps) => assert_eq!(ps, answers, "served exact Batch"),
        other => panic!("expected a batch, got {other:?}"),
    }
    let mut engine = PqeEngine::new();
    assert_eq!(
        engine.evaluate_batch_sharded(q, &tids, 2).unwrap(),
        answers,
        "2-shard exact batch"
    );
    listener.stop();
    server.shutdown();
}
