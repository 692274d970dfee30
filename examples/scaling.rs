//! E15: the dichotomy's *shape* — how the three engines scale with the
//! database.
//!
//! For the safe query `Q_φ9`, the extensional engine and the intensional
//! d-D pipeline are polynomial in the domain size, while brute force over
//! possible worlds is exponential in the tuple count (and is the only
//! generally-correct method for #P-hard queries). The absolute numbers
//! are machine-dependent; the crossover and the growth *shapes* are what
//! the paper's complexity claims predict.
//!
//! Run with: `cargo run --release --example scaling`

use std::time::Instant;

use intext::boolfn::phi9;
use intext::core::compile_dd;
use intext::extensional::pqe_extensional_f64;
use intext::query::{pqe_brute_force, HQuery};
use intext::tid::{complete_database, random_tid};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("query: Q_φ9 (safe, k = 3) on complete databases of growing domain\n");
    println!(
        "{:>6} {:>8} {:>16} {:>16} {:>16} {:>12}",
        "domain", "tuples", "brute force", "extensional", "intensional", "leaf nodes"
    );

    let mut rng = StdRng::seed_from_u64(0xD1C7);
    for n in 1..=12u32 {
        let db = complete_database(3, n);
        let tuples = db.len();
        let tid = random_tid(db, 10, &mut rng);
        let q = HQuery::new(phi9());

        let brute = if tuples <= 24 {
            let t0 = Instant::now();
            let p: f64 = pqe_brute_force(&q, &tid).unwrap();
            Some((p, t0.elapsed()))
        } else {
            None
        };

        let t0 = Instant::now();
        let ext = pqe_extensional_f64(&q, &tid).unwrap();
        let ext_time = t0.elapsed();

        let t0 = Instant::now();
        let dd = compile_dd(&phi9(), tid.database()).unwrap();
        let int: f64 = dd.probability(&tid);
        let int_time = t0.elapsed();

        let brute_cell = match &brute {
            Some((_, d)) => format!("{d:>14.2?}"),
            None => format!("{:>14}", "(2^tuples…)"),
        };
        println!(
            "{n:>6} {tuples:>8} {brute_cell:>16} {:>16} {:>16} {:>12}",
            format!("{ext_time:.2?}"),
            format!("{int_time:.2?}"),
            dd.size()
        );

        if let Some((pb, _)) = brute {
            assert!((pb - ext).abs() < 1e-9, "brute {pb} vs extensional {ext}");
        }
        assert!(
            (ext - int).abs() < 1e-9,
            "extensional {ext} vs intensional {int}"
        );
    }

    println!("\nbrute force doubles per extra tuple; the two polynomial engines crawl up");
    println!("gently — that gap is the content of the dichotomy (safe side).");
}
