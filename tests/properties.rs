//! Cross-crate property-based tests: random functions, random databases,
//! exact agreement between all engines and validity of every produced
//! artifact.

use intext::boolfn::{small, BoolFn};
use intext::core::{apply_steps, compile_dd, steps_between, steps_to_bottom, Fragmentation};
use intext::extensional::pqe_extensional;
use intext::numeric::BigRational;
use intext::query::{pqe_brute_force, HQuery};
use intext::tid::{random_database, random_tid, DbGenConfig, Tid};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a Boolean function on `n` variables with e(φ) = 0, built by
/// pairing equal numbers of even and odd satisfying valuations.
fn zero_euler_fn(n: u8) -> impl Strategy<Value = BoolFn> {
    (any::<u64>(), any::<u64>()).prop_map(move |(a, b)| {
        let evens = a & small::EVEN_PARITY_MASK & small::full_mask(n);
        let odds = b & !small::EVEN_PARITY_MASK & small::full_mask(n);
        // Balance the counts by dropping surplus bits.
        let (ne, no) = (evens.count_ones(), odds.count_ones());
        let keep = ne.min(no);
        let trim = |mut bits: u64, count: u32| {
            let mut dropped = 0;
            while dropped < count {
                let low = bits & bits.wrapping_neg();
                bits ^= low;
                dropped += 1;
            }
            bits
        };
        let table = trim(evens, ne - keep) | trim(odds, no - keep);
        BoolFn::from_table_u64(n, table)
    })
}

fn tid_from_seed(k: u8, seed: u64) -> Tid {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_database(
        &DbGenConfig {
            k,
            domain_size: 2,
            density: 0.65,
            prob_denominator: 5,
        },
        &mut rng,
    );
    random_tid(db, 5, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zero_euler_strategy_is_sound(phi in zero_euler_fn(4)) {
        prop_assert_eq!(phi.euler_characteristic(), 0);
    }

    #[test]
    fn to_bottom_always_reaches_bottom(phi in zero_euler_fn(4)) {
        let steps = steps_to_bottom(&phi).unwrap();
        prop_assert!(apply_steps(&phi, &steps).unwrap().is_bottom());
    }

    #[test]
    fn fragmentations_are_deterministic_and_exact(phi in zero_euler_fn(4)) {
        let frag = Fragmentation::of(&phi).unwrap();
        prop_assert_eq!(frag.to_boolfn(), phi);
        prop_assert!(frag.is_deterministic());
        prop_assert!(frag.leaves.iter().all(BoolFn::is_degenerate));
    }

    #[test]
    fn pipeline_matches_brute_force(phi in zero_euler_fn(3), seed in any::<u64>()) {
        let tid = tid_from_seed(2, seed);
        let dd = compile_dd(&phi, tid.database()).unwrap();
        let q = HQuery::new(phi);
        let brute: BigRational = pqe_brute_force(&q, &tid).unwrap();
        prop_assert_eq!(dd.probability::<BigRational>(&tid), brute);
    }

    #[test]
    fn extensional_matches_brute_force_on_safe_monotone(seed in any::<u64>(), raw in any::<u64>()) {
        // Upward-close a random seed set to get a monotone function.
        let mut phi = BoolFn::bottom(3);
        for v in 0..8u32 {
            if (raw >> v) & 1 == 1 {
                for sup in 0..8u32 {
                    if sup & v == v {
                        phi.set(sup, true);
                    }
                }
            }
        }
        prop_assume!(phi.euler_characteristic() == 0);
        let tid = tid_from_seed(2, seed);
        let q = HQuery::new(phi);
        let ext = pqe_extensional(&q, &tid).unwrap();
        let brute = pqe_brute_force(&q, &tid).unwrap();
        prop_assert_eq!(ext, brute);
    }

    #[test]
    fn steps_between_round_trip(a in zero_euler_fn(4), b in zero_euler_fn(4)) {
        let steps = steps_between(&a, &b).unwrap();
        prop_assert_eq!(apply_steps(&a, &steps).unwrap(), b);
    }

    #[test]
    fn compiled_circuit_probability_in_unit_interval(
        phi in zero_euler_fn(3),
        seed in any::<u64>(),
    ) {
        let tid = tid_from_seed(2, seed);
        let dd = compile_dd(&phi, tid.database()).unwrap();
        let p: BigRational = dd.probability(&tid);
        prop_assert!(p.is_probability(), "got {}", p);
    }
}
