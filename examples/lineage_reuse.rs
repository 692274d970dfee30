//! The knowledge-compilation payoff (paper, Introduction): once the
//! lineage is compiled into a d-D, it can be *reused* — update tuple
//! probabilities and re-evaluate in linear time, count models, evaluate
//! concrete worlds — without touching the database or recompiling.
//!
//! Run with: `cargo run --release --example lineage_reuse`

use intext::boolfn::phi9;
use intext::core::compile_dd;
use intext::lineage::compile_degenerate_obdd;
use intext::numeric::BigRational;
use intext::query::HQuery;
use intext::tid::{complete_database, random_tid, TupleId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(404);
    let db = complete_database(3, 4);
    let mut tid = random_tid(db, 100, &mut rng);
    println!("database: complete, k = 3, domain 4 → {} tuples", tid.len());

    // Compile once...
    let t0 = Instant::now();
    let dd = compile_dd(&phi9(), tid.database()).unwrap();
    println!(
        "compiled Lin(Q_φ9, D) once in {:.2?}: {} leaf OBDD nodes in {} leaves \
         (plugged into one d-D: {})",
        t0.elapsed(),
        dd.size(),
        dd.leaves().len(),
        dd.to_circuit().0.stats()
    );

    // ...evaluate many times under changing probabilities.
    let t0 = Instant::now();
    let mut last = BigRational::zero();
    const UPDATES: u32 = 25;
    for round in 0..UPDATES {
        let id = TupleId(round % tid.len() as u32);
        tid.set_prob(id, BigRational::from_ratio(i64::from(round % 99 + 1), 100))
            .unwrap();
        last = dd.probability(&tid);
    }
    println!(
        "{UPDATES} probability updates + exact re-evaluations in {:.2?} (no recompilation)",
        t0.elapsed()
    );
    println!("final Pr(Q_φ9) = {:.6}", last.to_f64());

    // Concrete-world evaluation on the compiled circuit.
    let all_present = (1u64 << 20) - 1; // more tuples than bits? guard below
    if tid.len() < 64 {
        let full_world = (1u64 << tid.len()) - 1;
        println!(
            "\nworld queries on the same circuit: D itself satisfies Q_φ9? {}",
            dd.eval_world(full_world)
        );
        println!("the empty world satisfies Q_φ9? {}", dd.eval_world(0));
        let _ = all_present;
    }

    // Model counting on an OBDD lineage (for a degenerate sub-query).
    let q_h0 = intext::boolfn::BoolFn::var(4, 0); // Q = h_{3,0}
    let lin = compile_degenerate_obdd(&q_h0, tid.database()).unwrap();
    let models = lin.manager.model_count(lin.root);
    println!(
        "\nOBDD lineage of h_{{3,0}}: {} nodes, {} satisfying worlds over its {}-tuple scope",
        lin.size(),
        models,
        lin.manager.order().len()
    );
    let q = HQuery::new(q_h0);
    println!("(query reads: {})", intext::query::h_cq(3, 0));
    drop(q);
}
