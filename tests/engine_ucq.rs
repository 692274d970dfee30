//! The UCQ front door, end to end:
//!
//! * **Differential on safe UCQs** — for every safe query in the
//!   corpus, lifted inference ≡ grounded circuit ≡ brute force
//!   bit-identically on exact rationals (and within 1e-12 on f64),
//!   both at the function level and through `PqeEngine::evaluate`;
//!   past brute force's reach, lifted ≡ grounded at domains 8 and 12,
//!   where the grounding's hierarchy order keeps every compile small.
//! * **Spellings** — renamed variables and a redundant atom share one
//!   ground cache key and one compile, with fresh-engine answers.
//! * **H-shape recognition** — all 272 Boolean functions with `k ≤ 2`,
//!   rendered to UCQ text and re-parsed, land on the *same* plans and
//!   cached artifacts as their native `HQuery` twins: zero extra
//!   compiles, asserted via `EngineStats`.
//! * **Parser robustness** — proptest: pretty-print → parse is the
//!   identity on ASTs, and arbitrary byte soup never panics.

use intext::boolfn::BoolFn;
use intext::engine::{Plan, PqeEngine};
use intext::numeric::BigRational;
use intext::query::{
    ground_circuit, ground_circuit_probability, h_query_text, is_safe_ucq, lifted_probability,
    parse_query, ucq_brute_force, HQuery, Query,
};
use intext::tid::{
    complete_database, random_database, random_tid, uniform_tid, Database, DbGenConfig, Tid,
    Vocabulary,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

/// A reproducible small instance: dense enough that queries are rarely
/// trivially 0/1, small enough that brute force (2^tuples worlds) is
/// instant.
fn corpus_tid(k: u8, seed: u64) -> Tid {
    random_instance(k, 2, seed)
}

/// A reproducible random instance with roughly a fifth of the tuples
/// missing.
fn random_instance(k: u8, domain_size: u32, seed: u64) -> Tid {
    let mut rng = StdRng::seed_from_u64(common::BASE_SEED ^ seed);
    let db = random_database(
        &DbGenConfig {
            k,
            domain_size,
            density: 0.8,
            prob_denominator: 7,
        },
        &mut rng,
    );
    random_tid(db, 7, &mut rng)
}

/// The corpus: query text over the canonical `R/S1/S2/T` names at
/// `k = 2`, with the safety verdict the Dalvi–Suciu test must reach.
/// Spellings deliberately mix shared variables, constants, unions, and
/// independent leaves.
const CORPUS: &[(&str, bool)] = &[
    // Single atoms and constant-bound atoms: always safe.
    ("R(x)", true),
    ("T(y)", true),
    ("S1(x,y)", true),
    ("S2(x,x)", true),
    ("R(0)", true),
    ("S1(0,y)", true),
    ("S1(x,1)", true),
    // Hierarchical CQs: safe.
    ("R(x), S1(x,y)", true),
    ("S2(x,y), T(y)", true),
    ("S1(0,y), T(y)", true),
    ("R(x), S1(x,y), S2(x,z)", true),
    // Independent leaves (each `&`-operand closes its own scope).
    ("R(x) & T(y)", true),
    ("R(x) & S1(x,y)", true),
    ("R(x) | T(y)", true),
    ("S1(0,0) | S1(1,1)", true),
    // The unsafe disjunct is subsumed by `R(x)` (there is a containment
    // homomorphism), so normalization reduces the union to `R(x)`: safe.
    ("R(x), S1(x,y), T(y) | R(x)", true),
    // The canonical unsafe CQ and friends.
    ("R(x), S1(x,y), T(y)", false),
    ("S1(x,y), S2(y,z), T(z)", false),
    ("R(x), S1(x,y), T(y) | S2(x,x)", false),
];

/// Part 1a, function level: on every safe corpus query, the three
/// evaluators agree bit for bit (exact) and to 1e-12 (f64).
#[test]
fn safe_ucqs_lifted_equals_grounded_equals_brute() {
    let voc = Vocabulary::h(2);
    let mut safe_checked = 0;
    for &(text, expect_safe) in CORPUS {
        let expr = parse_query(text, &voc).unwrap();
        let ucq = expr
            .to_ucq()
            .expect("the corpus is negation-free")
            .normalize();
        assert_eq!(is_safe_ucq(&ucq), expect_safe, "safety of {text}");
        if !expect_safe {
            assert!(lifted_probability::<BigRational>(&ucq, &corpus_tid(2, 0)).is_none());
            continue;
        }
        for seed in 0..5 {
            let tid = corpus_tid(2, seed);
            let lifted: BigRational = lifted_probability(&ucq, &tid).expect("safe queries lift");
            let grounded: BigRational = ground_circuit_probability(&expr, &tid);
            let brute: BigRational = ucq_brute_force(&expr, &tid).unwrap();
            assert_eq!(lifted, brute, "lifted vs brute on {text} (seed {seed})");
            assert_eq!(grounded, brute, "grounded vs brute on {text} (seed {seed})");
            let lifted64: f64 = lifted_probability(&ucq, &tid).unwrap();
            let grounded64: f64 = ground_circuit_probability(&expr, &tid);
            let brute64: f64 = ucq_brute_force(&expr, &tid).unwrap();
            assert!(
                (lifted64 - brute64).abs() <= 1e-12,
                "{text}: {lifted64} vs {brute64}"
            );
            assert!(
                (grounded64 - brute64).abs() <= 1e-12,
                "{text}: {grounded64} vs {brute64}"
            );
        }
        safe_checked += 1;
    }
    assert!(
        safe_checked >= 12,
        "corpus shrank: {safe_checked} safe queries"
    );
}

/// The grounding's variable order lists every tuple id exactly once,
/// for every corpus query (constants included) on complete instances
/// and on instances with missing tuples.
#[test]
fn grounding_order_is_a_permutation_of_the_tuple_ids() {
    let voc = Vocabulary::h(2);
    let mut instances = vec![complete_database(2, 3), Database::new(2, 3)];
    instances.extend((0..3).map(|seed| random_instance(2, 3, seed).database().clone()));
    for &(text, _) in CORPUS {
        let expr = parse_query(text, &voc).unwrap();
        for db in &instances {
            let (m, _) = ground_circuit(&expr, db);
            let mut ids = m.order().to_vec();
            ids.sort_unstable();
            assert!(
                ids.into_iter().eq(0..db.len() as u32),
                "{text} on {} tuples: the order is not a permutation",
                db.len()
            );
        }
    }
}

/// Part 1a past brute force: on every corpus query that is safe as
/// written, lifted ≡ grounded bit for bit on exact rationals at domains
/// 8 and 12. Queries that are safe only after normalization (the
/// grounding sees the text as written) are skipped.
#[test]
fn safe_ucqs_lifted_equals_grounded_at_domains_8_and_12() {
    let voc = Vocabulary::h(2);
    let mut checked = 0;
    for &(text, expect_safe) in CORPUS {
        let expr = parse_query(text, &voc).unwrap();
        let written = expr.to_ucq().expect("the corpus is negation-free");
        if !expect_safe || !is_safe_ucq(&written) {
            continue;
        }
        let ucq = written.normalize();
        for (domain, seed) in [(8, 0), (8, 1), (12, 2)] {
            let tid = random_instance(2, domain, seed);
            let lifted: BigRational = lifted_probability(&ucq, &tid).expect("safe queries lift");
            let grounded: BigRational = ground_circuit_probability(&expr, &tid);
            assert_eq!(lifted, grounded, "{text} at domain {domain} (seed {seed})");
        }
        checked += 1;
    }
    assert!(checked >= 12, "corpus shrank: {checked} safe queries");
}

/// Part 1b, engine level: the same corpus through the public API —
/// every query (safe *and* unsafe-but-small) answers exactly like
/// brute force, under both the exact and f64 entry points.
#[test]
fn engine_answers_match_brute_force_on_the_corpus() {
    let voc = Vocabulary::h(2);
    let mut engine = PqeEngine::new();
    for &(text, _) in CORPUS {
        let q = Query::parse(text, &voc).unwrap();
        let (expr, _) = q.general().expect("parsed queries are general");
        let expr = expr.clone();
        for seed in 0..3 {
            let tid = corpus_tid(2, seed);
            let p = engine.evaluate(&q, &tid).unwrap();
            assert_eq!(
                p,
                ucq_brute_force(&expr, &tid).unwrap(),
                "{text} (seed {seed})"
            );
            let p64 = engine.evaluate_f64(&q, &tid).unwrap();
            let brute64: f64 = ucq_brute_force(&expr, &tid).unwrap();
            assert!((p64 - brute64).abs() <= 1e-12, "{text}: {p64} vs {brute64}");
        }
    }
    assert!(
        engine.stats().plans(Plan::Lifted) > 0,
        "the corpus exercised lifted plans"
    );
    assert!(
        engine.stats().plans(Plan::GroundCircuit) > 0,
        "the corpus exercised ground plans"
    );
}

/// Part 1c: spellings of one grounded query — renamed variables and a
/// redundant atom — normalize to one cache key, so one engine compiles
/// once and grounds the normalized leaves for both, and each spelling's
/// answer is bit-identical to a fresh engine's.
#[test]
fn spellings_of_a_grounded_query_share_one_compile() {
    let voc = Vocabulary::h(2);
    let tid = random_instance(2, 3, 26);
    let mut engine = PqeEngine::new();
    for text in ["R(x), S1(x,y), T(y)", "T(b), S1(a,b), R(a), S1(a,c)"] {
        let q = Query::parse(text, &voc).unwrap();
        assert_eq!(
            engine.plan(&q, &tid).unwrap(),
            Plan::GroundCircuit,
            "{text}"
        );
        let exact = engine.evaluate(&q, &tid).unwrap();
        let float = engine.evaluate_f64(&q, &tid).unwrap();
        assert_eq!(
            engine.stats().cache_misses,
            1,
            "{text}: one compile for both"
        );
        let mut fresh = PqeEngine::new();
        assert_eq!(exact, fresh.evaluate(&q, &tid).unwrap(), "{text}");
        assert_eq!(
            float.to_bits(),
            fresh.evaluate_f64(&q, &tid).unwrap().to_bits(),
            "{text}"
        );
    }
}

/// Part 2: every Boolean function with `k ≤ 2` (16 + 256 = 272),
/// submitted as parsed UCQ text, is recognized as H-shaped and served
/// by the artifacts its native `HQuery` twin already compiled — same
/// answers, same plans, zero extra compiles.
#[test]
fn all_272_h_queries_round_trip_through_text_with_zero_extra_compiles() {
    let mut engine = PqeEngine::new();
    let mut round_trips = 0;
    for k in 1..=2u8 {
        // Small instances keep the hard region inside the brute-force
        // budget so every φ is exactly evaluable.
        let domain = if k == 1 { 2 } else { 1 };
        let tid = uniform_tid(complete_database(k, domain), BigRational::from_ratio(3, 7));
        let voc = Vocabulary::h(k);
        let tables = 1u64 << (1 << (k + 1));
        for table in 0..tables {
            let h = HQuery::new(BoolFn::from_table_u64(k + 1, table));
            let native_plan = engine.plan(&h, &tid).unwrap();
            let native = engine.evaluate(&h, &tid).unwrap();
            let compiles_after_native = engine.stats().cache_misses;

            let parsed = Query::parse(&h_query_text(&h), &voc).unwrap();
            assert!(
                parsed.as_h().is_some() || parsed.general().is_some(),
                "table {table:#x} at k={k} parsed to nothing"
            );
            assert_eq!(
                engine.plan(&parsed, &tid).unwrap(),
                native_plan,
                "table {table:#x} at k={k} routed differently as text"
            );
            assert_eq!(
                engine.evaluate(&parsed, &tid).unwrap(),
                native,
                "table {table:#x} at k={k} answered differently as text"
            );
            assert_eq!(
                engine.stats().cache_misses,
                compiles_after_native,
                "table {table:#x} at k={k} compiled again as text"
            );
            round_trips += 1;
        }
    }
    assert_eq!(round_trips, 272);
    // Recognition means *reuse*: the parsed pass produced cache hits on
    // every cacheable plan, never a second artifact.
    assert!(engine.stats().cache_hits >= engine.stats().cache_misses);
}

// ---------------------------------------------------------------- part 3

/// A random term over a small variable pool plus constants.
fn gen_term(rng: &mut StdRng) -> String {
    match rng.random_range(0..6u32) {
        0 => "x".into(),
        1 => "y".into(),
        2 => "z".into(),
        3 => "w".into(),
        c => (c - 4).to_string(),
    }
}

/// A random atom over the canonical k = 2 names.
fn gen_atom(rng: &mut StdRng) -> String {
    match rng.random_range(0..4u32) {
        0 => format!("R({})", gen_term(rng)),
        1 => format!("T({})", gen_term(rng)),
        2 => format!("S1({},{})", gen_term(rng), gen_term(rng)),
        _ => format!("S2({},{})", gen_term(rng), gen_term(rng)),
    }
}

/// A random query in the UCQ grammar: comma-joined atoms at the
/// leaves, `&`/`|`/`!`/parens above.
fn gen_query_text(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.random_range(0..3u32) == 0 {
        let atoms: Vec<String> = (0..rng.random_range(1..=3u32))
            .map(|_| gen_atom(rng))
            .collect();
        return atoms.join(", ");
    }
    match rng.random_range(0..3u32) {
        0 => format!(
            "({}) & ({})",
            gen_query_text(rng, depth - 1),
            gen_query_text(rng, depth - 1)
        ),
        1 => format!(
            "({}) | ({})",
            gen_query_text(rng, depth - 1),
            gen_query_text(rng, depth - 1)
        ),
        _ => format!("!({})", gen_query_text(rng, depth - 1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pretty-print → parse is the identity on parsed ASTs (parsing
    /// canonicalizes variables, so one round trip reaches the fixpoint).
    #[test]
    fn render_then_parse_is_identity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = gen_query_text(&mut rng, 3);
        let voc = Vocabulary::h(2);
        let expr = parse_query(&text, &voc).expect("generated text is grammatical");
        let q = Query::from_expr(expr.clone(), voc.clone());
        let rendered = q.to_string();
        let reparsed = Query::parse(&rendered, &voc).expect("rendered text re-parses");
        prop_assert_eq!(
            rendered.clone(),
            reparsed.to_string(),
            "render/parse did not reach a fixpoint for {}", text
        );
        // And the reparse denotes the same query: identical required_k,
        // H-recognition verdict, and (for general queries) AST.
        prop_assert_eq!(q.required_k(), reparsed.required_k());
        prop_assert_eq!(q.as_h().is_some(), reparsed.as_h().is_some());
        if let (Some((a, _)), Some((b, _))) = (q.general(), reparsed.general()) {
            prop_assert_eq!(a, b, "AST changed across render/parse for {}", text);
        }
    }

    /// The parser is total: arbitrary byte soup is `Ok` or a typed
    /// `ParseError`, never a panic.
    #[test]
    fn random_bytes_never_panic_the_parser(seed in any::<u64>(), len in 0usize..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u32) as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_query(&text, &Vocabulary::h(2));
        let _ = Query::parse(&text, &Vocabulary::h(1));
    }

    /// Near-miss strings (grammar-shaped fragments cut mid-token) are
    /// equally safe.
    #[test]
    fn mangled_query_text_never_panics(seed in any::<u64>(), cut in 0usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = gen_query_text(&mut rng, 3);
        let mangled: String = text.chars().take(cut).collect();
        let _ = parse_query(&mangled, &Vocabulary::h(2));
    }
}
