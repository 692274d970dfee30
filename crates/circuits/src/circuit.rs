//! Arena-allocated Boolean circuits.

use std::collections::{HashMap, HashSet};
use std::fmt;

use intext_numeric::{BigRational, ProbNum};

use crate::eval::EvalScratch;

/// Index of a gate inside a [`Circuit`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GateId(pub u32);

/// A circuit gate. Variables are identified by `u32` ids (in this
/// project: [`TupleId`]s of the database).
///
/// [`TupleId`]: https://docs.rs/intext-tid
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Gate {
    /// Constant true/false.
    Const(bool),
    /// An input variable.
    Var(u32),
    /// Conjunction of the inputs (empty = true).
    And(Vec<GateId>),
    /// Disjunction of the inputs (empty = false).
    Or(Vec<GateId>),
    /// Negation.
    Not(GateId),
}

/// Size and shape statistics of a circuit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitStats {
    /// Total gates in the arena.
    pub gates: usize,
    /// `∧`-gates.
    pub and_gates: usize,
    /// `∨`-gates.
    pub or_gates: usize,
    /// `¬`-gates.
    pub not_gates: usize,
    /// Variable gates.
    pub var_gates: usize,
    /// Wires (sum of fan-ins).
    pub edges: usize,
    /// Longest path from the root to a leaf.
    pub depth: usize,
}

/// A Boolean circuit: an arena of gates plus a root.
///
/// Gates are hash-consed on insertion, so structurally identical subtrees
/// share storage, and the arena is topologically ordered (inputs precede
/// users), which makes all analyses single bottom-up passes.
///
/// **Concurrency contract** (relied on by the engine's sharded batch
/// evaluation): mutation happens only through `&mut self` during
/// construction; every walk — [`eval`](Self::eval),
/// [`probability`](Self::probability), [`stats`](Self::stats) — takes
/// `&self`, keeps its scratch space on its own stack or in the caller's
/// [`EvalScratch`], and caches nothing in the arena. A compiled circuit
/// behind an `Arc` can therefore be walked by any number of threads at
/// once; the `Send + Sync` bound is pinned by a compile-time test.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    gates: Vec<Gate>,
    dedup: HashMap<Gate, GateId>,
}

impl Circuit {
    /// Creates an empty circuit builder.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Inserts a gate (hash-consed), returning its id.
    ///
    /// # Panics
    /// Panics if an input id is out of range (inputs must already exist).
    pub fn add(&mut self, gate: Gate) -> GateId {
        let check = |id: &GateId| {
            assert!(
                (id.0 as usize) < self.gates.len(),
                "gate input {id:?} does not exist"
            );
        };
        match &gate {
            Gate::And(xs) | Gate::Or(xs) => xs.iter().for_each(check),
            Gate::Not(x) => check(x),
            Gate::Const(_) | Gate::Var(_) => {}
        }
        if let Some(&id) = self.dedup.get(&gate) {
            return id;
        }
        let id = GateId(u32::try_from(self.gates.len()).expect("gate count fits u32"));
        self.gates.push(gate.clone());
        self.dedup.insert(gate, id);
        id
    }

    /// Convenience: constant gate.
    pub fn constant(&mut self, b: bool) -> GateId {
        self.add(Gate::Const(b))
    }

    /// Convenience: variable gate.
    pub fn var(&mut self, v: u32) -> GateId {
        self.add(Gate::Var(v))
    }

    /// Convenience: conjunction.
    pub fn and(&mut self, inputs: Vec<GateId>) -> GateId {
        self.add(Gate::And(inputs))
    }

    /// Convenience: disjunction.
    pub fn or(&mut self, inputs: Vec<GateId>) -> GateId {
        self.add(Gate::Or(inputs))
    }

    /// Convenience: negation.
    pub fn not(&mut self, input: GateId) -> GateId {
        self.add(Gate::Not(input))
    }

    /// The gate stored at `id`.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.0 as usize]
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` iff no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Evaluates the function of gate `root` under a variable assignment.
    pub fn eval(&self, root: GateId, assignment: &impl Fn(u32) -> bool) -> bool {
        let mut values = vec![false; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            values[i] = match g {
                Gate::Const(b) => *b,
                Gate::Var(v) => assignment(*v),
                Gate::And(xs) => xs.iter().all(|x| values[x.0 as usize]),
                Gate::Or(xs) => xs.iter().any(|x| values[x.0 as usize]),
                Gate::Not(x) => !values[x.0 as usize],
            };
        }
        values[root.0 as usize]
    }

    /// The set of variables below each gate (`Vars(g)` in the paper).
    pub fn vars_per_gate(&self) -> Vec<HashSet<u32>> {
        let mut out: Vec<HashSet<u32>> = Vec::with_capacity(self.gates.len());
        for g in &self.gates {
            let set = match g {
                Gate::Const(_) => HashSet::new(),
                Gate::Var(v) => HashSet::from([*v]),
                Gate::Not(x) => out[x.0 as usize].clone(),
                Gate::And(xs) | Gate::Or(xs) => {
                    let mut s = HashSet::new();
                    for x in xs {
                        s.extend(out[x.0 as usize].iter().copied());
                    }
                    s
                }
            };
            out.push(set);
        }
        out
    }

    /// All variables appearing at or below `root`.
    pub fn vars(&self, root: GateId) -> HashSet<u32> {
        let per_gate = self.vars_per_gate();
        per_gate[root.0 as usize].clone()
    }

    /// Probability of the gate's function under independent variable
    /// probabilities, **assuming the circuit rooted at `root` is a d-D**
    /// (`∧ → ×`, `∨ → +`, `¬ → 1-x`; Section 2 of the paper): one
    /// forward pass over the gate table, in any [`ProbNum`] type, reading
    /// `prob(v)` at each variable gate and keeping the gate values in
    /// `scratch` (no heap allocation once it has grown to this arena's
    /// size). Linear time.
    ///
    /// **Operation order** (the bit-identity contract of `DESIGN.md`
    /// §6): an `∧` gate is a product from one over its inputs in arena
    /// order, an `∨` gate a sum from zero, a `¬` gate `1 − x`. So a
    /// `[f64; LANES]` pass gives, in lane `l`, the bits of the `f64`
    /// pass under lane `l`'s probabilities.
    pub fn probability<N: ProbNum>(
        &self,
        root: GateId,
        prob: impl Fn(u32) -> N,
        scratch: &mut EvalScratch<N>,
    ) -> N {
        let values = &mut scratch.values;
        values.clear();
        for g in &self.gates {
            let value = match g {
                Gate::Const(true) => N::one(),
                Gate::Const(false) => N::zero(),
                Gate::Var(v) => prob(*v),
                Gate::And(xs) => xs
                    .iter()
                    .fold(N::one(), |acc, x| acc.mul(&values[x.0 as usize])),
                Gate::Or(xs) => xs
                    .iter()
                    .fold(N::zero(), |acc, x| acc.add(&values[x.0 as usize])),
                Gate::Not(x) => values[x.0 as usize].complement(),
            };
            values.push(value);
        }
        values[root.0 as usize].clone()
    }

    /// Counts the satisfying assignments of a d-D over the given variable
    /// set (which must contain all variables below `root`): weighted model
    /// counting at probability `1/2` scaled by `2^|vars|` — valid exactly
    /// because d-Ds make WMC linear.
    pub fn model_count_dd(&self, root: GateId, vars: &[u32]) -> BigRational {
        debug_assert!(
            self.vars(root).iter().all(|v| vars.contains(v)),
            "variable set must cover the circuit"
        );
        let half = BigRational::from_ratio(1, 2);
        let p = self.probability(root, |_| half.clone(), &mut EvalScratch::new());
        let scale = BigRational::new(
            intext_numeric::BigInt::from(
                intext_numeric::BigUint::one().shl_bits(vars.len() as u64),
            ),
            intext_numeric::BigUint::one(),
        );
        &p * &scale
    }

    /// Gate/edge/depth statistics for the whole arena.
    pub fn stats(&self) -> CircuitStats {
        let mut s = CircuitStats {
            gates: self.gates.len(),
            ..Default::default()
        };
        let mut depth = vec![0usize; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            match g {
                Gate::Const(_) => {}
                Gate::Var(_) => s.var_gates += 1,
                Gate::Not(x) => {
                    s.not_gates += 1;
                    s.edges += 1;
                    depth[i] = depth[x.0 as usize] + 1;
                }
                Gate::And(xs) => {
                    s.and_gates += 1;
                    s.edges += xs.len();
                    depth[i] = xs.iter().map(|x| depth[x.0 as usize]).max().unwrap_or(0) + 1;
                }
                Gate::Or(xs) => {
                    s.or_gates += 1;
                    s.edges += xs.len();
                    depth[i] = xs.iter().map(|x| depth[x.0 as usize]).max().unwrap_or(0) + 1;
                }
            }
        }
        s.depth = depth.iter().copied().max().unwrap_or(0);
        s
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates ({}∧ {}∨ {}¬ {} vars), {} edges, depth {}",
            self.gates,
            self.and_gates,
            self.or_gates,
            self.not_gates,
            self.var_gates,
            self.edges,
            self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::LANES;

    /// (x0 ∧ x1) ∨ ¬x2, rooted at the Or.
    fn sample() -> (Circuit, GateId) {
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let x2 = c.var(2);
        let a = c.and(vec![x0, x1]);
        let n = c.not(x2);
        let root = c.or(vec![a, n]);
        (c, root)
    }

    #[test]
    fn evaluation() {
        let (c, root) = sample();
        let cases = [
            (0b000u32, true), // ¬x2
            (0b011, true),    // x0∧x1
            (0b100, false),
            (0b111, true),
        ];
        for (bits, expect) in cases {
            let got = c.eval(root, &|v| (bits >> v) & 1 == 1);
            assert_eq!(got, expect, "bits {bits:#05b}");
        }
    }

    #[test]
    fn hash_consing_shares_structure() {
        let mut c = Circuit::new();
        let x = c.var(7);
        let y = c.var(7);
        assert_eq!(x, y);
        let a1 = c.and(vec![x, y]);
        let a2 = c.and(vec![x, y]);
        assert_eq!(a1, a2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn vars_tracking() {
        let (c, root) = sample();
        let vars = c.vars(root);
        assert_eq!(vars, HashSet::from([0, 1, 2]));
    }

    #[test]
    fn dd_probability_on_a_valid_dd() {
        // x0 ∨ (¬x0 ∧ x1) is deterministic and decomposable.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let n0 = c.not(x0);
        let a = c.and(vec![n0, x1]);
        let root = c.or(vec![x0, a]);
        let p = c.probability(
            root,
            |v| if v == 0 { 0.5 } else { 0.25 },
            &mut EvalScratch::new(),
        );
        // Pr(x0 ∨ x1) = 1 - 0.5*0.75 = 0.625.
        assert!((p - 0.625).abs() < 1e-12);
        let exact = c.probability(
            root,
            |v| BigRational::from_ratio(1, if v == 0 { 2 } else { 4 }),
            &mut EvalScratch::new(),
        );
        assert_eq!(exact, BigRational::from_ratio(5, 8));
    }

    #[test]
    fn stats_counts() {
        let (c, _) = sample();
        let s = c.stats();
        assert_eq!(s.gates, 6);
        assert_eq!(s.and_gates, 1);
        assert_eq!(s.or_gates, 1);
        assert_eq!(s.not_gates, 1);
        assert_eq!(s.var_gates, 3);
        assert_eq!(s.edges, 5);
        assert_eq!(s.depth, 2);
        assert!(s.to_string().contains("6 gates"));
    }

    #[test]
    fn empty_connectives() {
        let mut c = Circuit::new();
        let t = c.and(vec![]);
        let f = c.or(vec![]);
        assert!(c.eval(t, &|_| false));
        assert!(!c.eval(f, &|_| true));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn dangling_input_rejected() {
        let mut c = Circuit::new();
        c.add(Gate::Not(GateId(5)));
    }

    #[test]
    fn lane_batched_walk_is_bit_identical_to_scalar() {
        // x0 ∨ (¬x0 ∧ x1): a valid d-D, so the probability semantics are
        // meaningful — and bit-identity must hold lane by lane.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let n0 = c.not(x0);
        let a = c.and(vec![n0, x1]);
        let root = c.or(vec![x0, a]);

        let mut probs = [[0.0; LANES]; 2];
        let mut scenario = |lane: usize| {
            let p0 = 0.05 + 0.11 * lane as f64;
            let p1 = 1.0 / (lane as f64 + 3.0);
            probs[0][lane] = p0;
            probs[1][lane] = p1;
            (p0, p1)
        };
        let expected: Vec<f64> = (0..LANES)
            .map(|lane| {
                let (p0, p1) = scenario(lane);
                c.probability(
                    root,
                    |v| if v == 0 { p0 } else { p1 },
                    &mut EvalScratch::new(),
                )
            })
            .collect();
        let mut scratch = EvalScratch::new();
        let got = c.probability(root, |v| probs[v as usize], &mut scratch);
        for lane in 0..LANES {
            assert_eq!(got[lane].to_bits(), expected[lane].to_bits(), "lane {lane}");
        }
        // Scratch reuse across calls changes nothing.
        let again = c.probability(root, |v| probs[v as usize], &mut scratch);
        assert_eq!(again, got);
    }

    #[test]
    fn lane_batched_walk_handles_constants_and_empty_connectives() {
        let mut c = Circuit::new();
        let t = c.and(vec![]); // empty ∧ = ⊤
        let f = c.or(vec![]); // empty ∨ = ⊥
        let probs: Vec<[f64; LANES]> = Vec::new();
        let mut scratch = EvalScratch::new();
        assert_eq!(
            c.probability(t, |v| probs[v as usize], &mut scratch),
            [1.0; LANES]
        );
        assert_eq!(
            c.probability(f, |v| probs[v as usize], &mut scratch),
            [0.0; LANES]
        );
    }

    #[test]
    fn circuits_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        // Sharded evaluation walks one circuit from many threads; this
        // fails to compile if interior mutability ever creeps in.
        assert_send_sync::<Circuit>();

        // And the walks really are `&self`: concurrent probability
        // passes over a shared circuit agree with the single-threaded
        // answer.
        let mut c = Circuit::new();
        let x0 = c.var(0);
        let x1 = c.var(1);
        let n0 = c.not(x0);
        let a = c.and(vec![n0, x1]);
        let root = c.or(vec![x0, a]);
        let prob = |v| if v == 0 { 0.5 } else { 0.25 };
        let expected = c.probability(root, prob, &mut EvalScratch::new());
        let shared = std::sync::Arc::new(c);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&shared);
                s.spawn(move || {
                    let p = c.probability(root, prob, &mut EvalScratch::new());
                    assert!((p - expected).abs() < 1e-15);
                });
            }
        });
    }
}
