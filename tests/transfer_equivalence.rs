//! E10/E11 (Theorem 6.2 and Proposition 6.1): the ≃-transformation
//! connects exactly the functions of equal Euler characteristic, and the
//! induced reductions preserve probabilities and lineage circuits.

use intext::boolfn::{small, BoolFn};
use intext::circuits::{Circuit, EvalScratch};
use intext::core::{
    apply_steps, compile_dd, pqe_via_transfer, steps_between, transfer_circuit, Step,
};
use intext::query::{pqe_brute_force, HQuery};
use intext::tid::{random_database, random_tid, DbGenConfig, Tid, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_tid(k: u8, seed: u64) -> Tid {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_database(
        &DbGenConfig {
            k,
            domain_size: 2,
            density: 0.7,
            prob_denominator: 6,
        },
        &mut rng,
    );
    random_tid(db, 6, &mut rng)
}

fn random_table(rng: &mut StdRng, n: u8) -> u64 {
    rng.random::<u64>() & small::full_mask(n)
}

#[test]
fn random_equal_euler_pairs_are_step_connected_k3() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut connected = 0;
    while connected < 25 {
        let t1 = random_table(&mut rng, 4);
        let t2 = random_table(&mut rng, 4);
        if small::euler(4, t1) != small::euler(4, t2) {
            continue;
        }
        let f = BoolFn::from_table_u64(4, t1);
        let g = BoolFn::from_table_u64(4, t2);
        let steps = steps_between(&f, &g).expect("equal Euler implies ≃");
        assert_eq!(apply_steps(&f, &steps).unwrap(), g, "{t1:#x} -> {t2:#x}");
        connected += 1;
    }
}

#[test]
fn step_sequences_preserve_euler_throughout() {
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..10 {
        let t1 = random_table(&mut rng, 4);
        let t2 = random_table(&mut rng, 4);
        if small::euler(4, t1) != small::euler(4, t2) {
            continue;
        }
        let f = BoolFn::from_table_u64(4, t1);
        let g = BoolFn::from_table_u64(4, t2);
        let steps = steps_between(&f, &g).unwrap();
        let e = f.euler_characteristic();
        let mut cur = f;
        for s in &steps {
            cur = s.apply(&cur).unwrap();
            assert_eq!(cur.euler_characteristic(), e, "invariant broken at {s:?}");
        }
        assert_eq!(cur, g);
    }
}

#[test]
fn pqe_reduction_reconstructs_probabilities_exactly() {
    // Theorem 6.2 (a) with brute force as the oracle, on hard queries
    // (e = ±1, ±2) where no direct polynomial algorithm exists.
    let tid = sample_tid(2, 5);
    let mut rng = StdRng::seed_from_u64(77);
    let mut done = 0;
    while done < 10 {
        let t1 = random_table(&mut rng, 3);
        let t2 = random_table(&mut rng, 3);
        let e = small::euler(3, t1);
        if e != small::euler(3, t2) || e == 0 {
            continue;
        }
        let f = BoolFn::from_table_u64(3, t1);
        let g = BoolFn::from_table_u64(3, t2);
        let steps = steps_between(&f, &g).unwrap();
        let source = pqe_brute_force(&HQuery::new(f.clone()), &tid).unwrap();
        let transferred = pqe_via_transfer(&source, 3, &steps, &tid).unwrap();
        let direct = pqe_brute_force(&HQuery::new(g), &tid).unwrap();
        assert_eq!(transferred, direct, "e={e}, {t1:#x} -> {t2:#x}");
        done += 1;
    }
}

#[test]
fn circuit_transfer_equals_direct_compilation() {
    // Theorem 6.2 (b): extending a compiled d-D along steps yields the
    // same function as compiling the target from scratch.
    let tid = sample_tid(3, 21);
    let db = tid.database();
    let mut rng = StdRng::seed_from_u64(9);
    let mut done = 0;
    while done < 5 {
        let t = random_table(&mut rng, 4);
        if small::euler(4, t) != 0 {
            continue;
        }
        let phi = BoolFn::from_table_u64(4, t);
        // Compile phi9-class source: ⊥ is the simplest e=0 source.
        let steps: Vec<Step> = steps_between(&BoolFn::bottom(4), &phi).unwrap();
        let mut circuit = Circuit::new();
        let bot = circuit.constant(false);
        let root = transfer_circuit(&mut circuit, bot, 4, &steps, db).unwrap();
        let via_transfer = circuit.probability(
            root,
            |v| tid.prob(TupleId(v)).clone(),
            &mut EvalScratch::new(),
        );
        let direct = compile_dd(&phi, db).unwrap().probability(&tid);
        assert_eq!(via_transfer, direct, "t={t:#x}");
        done += 1;
    }
}

#[test]
fn transfer_composes_transitively() {
    // f → g → h equals f → h semantically.
    let f = BoolFn::from_sat(3, [0b000u32, 0b001]);
    let g = BoolFn::from_sat(3, [0b010u32, 0b110]);
    let h = BoolFn::from_sat(3, [0b111u32, 0b011, 0b101, 0b100]);
    assert_eq!(f.euler_characteristic(), 0);
    assert_eq!(g.euler_characteristic(), 0);
    assert_eq!(h.euler_characteristic(), 0);
    let fg = steps_between(&f, &g).unwrap();
    let gh = steps_between(&g, &h).unwrap();
    let mut composed = fg;
    composed.extend(gh);
    assert_eq!(apply_steps(&f, &composed).unwrap(), h);
}
