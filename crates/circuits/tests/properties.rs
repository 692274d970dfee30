//! Property-based tests for the knowledge-compilation substrate: OBDD
//! operations against truth-table semantics, and circuit conversions.

use intext_circuits::{EvalScratch, NodeRef, ObddManager};
use proptest::prelude::*;

/// Builds the OBDD of an arbitrary 4-variable function (truth table `t`)
/// by Shannon expansion through `mk`. At recursion depth `level` the
/// table is densely re-indexed over the remaining `4 - level` variables,
/// with the current variable at the lowest dense bit.
fn obdd_of(m: &mut ObddManager, t: u16) -> NodeRef {
    fn rec(m: &mut ObddManager, t: u16, level: u32) -> NodeRef {
        let remaining = 4 - level;
        if remaining == 0 {
            return if t & 1 == 1 {
                NodeRef::TRUE
            } else {
                NodeRef::FALSE
            };
        }
        let mut lo_bits = 0u16;
        let mut hi_bits = 0u16;
        for v in 0..(1u32 << remaining) {
            if (t >> v) & 1 == 1 {
                if v & 1 == 0 {
                    lo_bits |= 1 << (v >> 1);
                } else {
                    hi_bits |= 1 << (v >> 1);
                }
            }
        }
        let lo = rec(m, lo_bits, level + 1);
        let hi = rec(m, hi_bits, level + 1);
        m.mk(level, lo, hi)
    }
    rec(m, t, 0)
}

fn eval_table(t: u16, bits: u32) -> bool {
    (t >> bits) & 1 == 1
}

proptest! {
    #[test]
    fn obdd_construction_matches_table(t in any::<u16>()) {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let f = obdd_of(&mut m, t);
        for bits in 0..16u32 {
            prop_assert_eq!(m.eval(f, &|v| (bits >> v) & 1 == 1), eval_table(t, bits));
        }
    }

    #[test]
    fn apply_ops_match_tables(a in any::<u16>(), b in any::<u16>()) {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let fa = obdd_of(&mut m, a);
        let fb = obdd_of(&mut m, b);
        let and = m.and(fa, fb);
        let or = m.or(fa, fb);
        let xor = m.xor(fa, fb);
        let not = m.not(fa);
        for bits in 0..16u32 {
            let assign = |v: u32| (bits >> v) & 1 == 1;
            prop_assert_eq!(m.eval(and, &assign), eval_table(a & b, bits));
            prop_assert_eq!(m.eval(or, &assign), eval_table(a | b, bits));
            prop_assert_eq!(m.eval(xor, &assign), eval_table(a ^ b, bits));
            prop_assert_eq!(m.eval(not, &assign), eval_table(!a, bits));
        }
    }

    #[test]
    fn canonicity_table_equality_is_ref_equality(a in any::<u16>(), b in any::<u16>()) {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let fa = obdd_of(&mut m, a);
        let fb = obdd_of(&mut m, b);
        prop_assert_eq!(fa == fb, a == b);
    }

    #[test]
    fn model_count_matches_popcount(t in any::<u16>()) {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let f = obdd_of(&mut m, t);
        prop_assert_eq!(m.model_count(f).to_u64(), Some(u64::from(t.count_ones())));
    }

    #[test]
    fn probability_matches_weighted_enumeration(t in any::<u16>(), seed in any::<u32>()) {
        let probs: Vec<f64> = (0..4)
            .map(|i| f64::from((seed >> (8 * i)) & 0xff) / 255.0)
            .collect();
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let f = obdd_of(&mut m, t);
        let mut scratch = EvalScratch::new();
        let via_obdd = m.probability(f, scratch.prepare(0..4, |v| probs[v as usize]));
        let mut direct = 0.0;
        for bits in 0..16u32 {
            if !eval_table(t, bits) {
                continue;
            }
            let mut w = 1.0;
            for (i, p) in probs.iter().enumerate() {
                w *= if (bits >> i) & 1 == 1 { *p } else { 1.0 - *p };
            }
            direct += w;
        }
        prop_assert!((via_obdd - direct).abs() < 1e-9, "{} vs {}", via_obdd, direct);
    }

    #[test]
    fn to_circuit_preserves_semantics_and_dd(t in any::<u16>()) {
        let mut m = ObddManager::new(vec![0, 1, 2, 3]);
        let f = obdd_of(&mut m, t);
        let (c, root) = m.to_circuit(f);
        intext_circuits::verify::check_dd(&c, root).expect("OBDDs are d-Ds");
        for bits in 0..16u32 {
            prop_assert_eq!(c.eval(root, &|v| (bits >> v) & 1 == 1), eval_table(t, bits));
        }
        // d-D model counting agrees with the OBDD's.
        let count = c.model_count_dd(root, &[0, 1, 2, 3]);
        prop_assert_eq!(
            count.numer().to_i64().unwrap(),
            i64::from(t.count_ones())
        );
    }
}
