//! `¬`-`∨`-templates and fragmentability (Section 4 of the paper).
//!
//! A [`Template`] is a circuit of `¬` and `∨` gates over numbered holes
//! (Definition 4.1); a function is *fragmentable* (Definition 4.2) when
//! some template filled with *degenerate* functions is deterministic and
//! equivalent to it. [`Fragmentation::of`] realizes Propositions 5.1 +
//! 5.8: replay a `⊥ → φ` step sequence, producing for each step the
//! degenerate pair-function `ψ_i` with `SAT(ψ_i) = {ν_i, ν_i^(l_i)}` and
//! wrapping the template as `T ∨ ψ` (for `∼▷⁺`) or `¬(¬T ∨ ψ)` (for
//! `∼▷⁻`).

use intext_boolfn::BoolFn;

use crate::transform::{self, Step, StepKind, TransformError};

/// A `¬`-`∨`-template (Definition 4.1): internal nodes are negations or
/// binary disjunctions; leaves are numbered holes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Template {
    /// A hole, to be filled by the leaf function with this index.
    Hole(usize),
    /// Disjunction.
    Or(Box<Template>, Box<Template>),
    /// Negation.
    Not(Box<Template>),
}

/// One step of [`Template::fold`]: a hole, or a gate applied to the
/// values its inputs folded to.
#[derive(Debug)]
pub enum Fold<T> {
    /// The value of leaf `i`, filling `Hole(i)`.
    Hole(usize),
    /// A disjunction of its left and right input values.
    Or(T, T),
    /// A negation of its input value.
    Not(T),
}

impl Template {
    /// Evaluates the template bottom-up, left input before right:
    /// `step` maps each hole to a value and each gate's input values to
    /// the gate's value. Every evaluation of a filled template — its
    /// truth table, its probability, the circuit it plugs into — is one
    /// fold.
    pub fn fold<T>(&self, step: &mut impl FnMut(Fold<T>) -> T) -> T {
        match self {
            Template::Hole(i) => step(Fold::Hole(*i)),
            Template::Or(a, b) => {
                let a = a.fold(step);
                let b = b.fold(step);
                step(Fold::Or(a, b))
            }
            Template::Not(a) => {
                let a = a.fold(step);
                step(Fold::Not(a))
            }
        }
    }

    /// Number of gates (internal nodes) in the template.
    pub fn gate_count(&self) -> usize {
        match self {
            Template::Hole(_) => 0,
            Template::Or(a, b) => 1 + a.gate_count() + b.gate_count(),
            Template::Not(a) => 1 + a.gate_count(),
        }
    }

    /// Number of `¬` gates — the resource Section 7's "using fewer
    /// negations" question is about.
    pub fn negation_count(&self) -> usize {
        match self {
            Template::Hole(_) => 0,
            Template::Or(a, b) => a.negation_count() + b.negation_count(),
            Template::Not(a) => 1 + a.negation_count(),
        }
    }
}

/// A fragmentation witness: a template plus one degenerate Boolean
/// function per hole, whose (deterministic) composition equals the
/// original function.
#[derive(Clone, Debug)]
pub struct Fragmentation {
    /// The `¬`-`∨`-template.
    pub template: Template,
    /// Leaf functions; `leaves[i]` fills `Hole(i)`. All degenerate.
    pub leaves: Vec<BoolFn>,
}

impl Fragmentation {
    /// Fragments a function with zero Euler characteristic
    /// (Proposition 5.1 via Propositions 5.9 + 5.8).
    pub fn of(phi: &BoolFn) -> Result<Fragmentation, TransformError> {
        let to_bottom = transform::steps_to_bottom(phi)?;
        let build_up = transform::invert_steps(&to_bottom);
        Ok(Self::from_steps(phi.num_vars(), &build_up))
    }

    /// Proposition 5.8: builds the template from a validated `⊥ → φ`
    /// step sequence.
    pub fn from_steps(n: u8, steps_from_bottom: &[Step]) -> Fragmentation {
        let mut template = Template::Hole(0);
        let mut leaves = vec![BoolFn::bottom(n)];
        for step in steps_from_bottom {
            let pair = BoolFn::from_sat(n, [step.nu, step.partner()]);
            debug_assert!(
                pair.is_degenerate(),
                "pair functions ignore the flipped variable"
            );
            let idx = leaves.len();
            leaves.push(pair);
            template = match step.kind {
                StepKind::Add => Template::Or(Box::new(template), Box::new(Template::Hole(idx))),
                StepKind::Remove => Template::Not(Box::new(Template::Or(
                    Box::new(Template::Not(Box::new(template))),
                    Box::new(Template::Hole(idx)),
                ))),
            };
        }
        Fragmentation { template, leaves }
    }

    /// Evaluates the filled template back into a truth table
    /// (for verification: must equal the fragmented function).
    pub fn to_boolfn(&self) -> BoolFn {
        self.template.fold(&mut |step| match step {
            Fold::Hole(i) => self.leaves[i].clone(),
            Fold::Or(a, b) => &a | &b,
            Fold::Not(a) => !&a,
        })
    }

    /// Checks that every `∨` of the filled template is deterministic
    /// (Definition 4.1: its two inputs are disjoint functions).
    pub fn is_deterministic(&self) -> bool {
        self.check_det(&self.template).is_some()
    }

    fn check_det(&self, t: &Template) -> Option<BoolFn> {
        match t {
            Template::Hole(i) => Some(self.leaves[*i].clone()),
            Template::Not(a) => Some(!&self.check_det(a)?),
            Template::Or(a, b) => {
                let fa = self.check_det(a)?;
                let fb = self.check_det(b)?;
                if fa.is_disjoint(&fb) {
                    Some(&fa | &fb)
                } else {
                    None
                }
            }
        }
    }

    /// Number of holes/leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::{phi9, phi_no_pm, small};

    #[test]
    fn phi9_fragmentation_round_trips() {
        let frag = Fragmentation::of(&phi9()).unwrap();
        assert_eq!(frag.to_boolfn(), phi9());
        assert!(frag.is_deterministic());
        for leaf in &frag.leaves {
            assert!(leaf.is_degenerate());
        }
    }

    #[test]
    fn example_4_3_style_fragmentation_validates() {
        // The paper's hand-built fragmentation of phi9: T = l0∨l1∨l2∨l3
        // with the four disjoint degenerate pieces of Example 4.3.
        let l0 = BoolFn::from_sat(4, [0b1001u32, 0b1011]); // 0∧¬2∧3
        let l1 = BoolFn::from_sat(4, [0b1100u32, 0b1101]); // ¬1∧2∧3
        let l2 = BoolFn::from_sat(4, [0b1010u32, 0b1110]); // ¬0∧1∧3
        let l3 = BoolFn::from_sat(4, [0b0111u32, 0b1111]); // 0∧1∧2
        let template = Template::Or(
            Box::new(Template::Or(
                Box::new(Template::Or(
                    Box::new(Template::Hole(0)),
                    Box::new(Template::Hole(1)),
                )),
                Box::new(Template::Hole(2)),
            )),
            Box::new(Template::Hole(3)),
        );
        let frag = Fragmentation {
            template,
            leaves: vec![l0, l1, l2, l3],
        };
        assert!(frag.is_deterministic());
        assert_eq!(frag.to_boolfn(), phi9());
        assert_eq!(
            frag.template.negation_count(),
            0,
            "Example 4.3 uses no negations"
        );
    }

    #[test]
    fn two_sided_functions_need_negations() {
        // φ_no-PM cannot be reached by additions alone (Figure 5), so its
        // fragmentation must use ¬ gates.
        let frag = Fragmentation::of(&phi_no_pm()).unwrap();
        assert_eq!(frag.to_boolfn(), phi_no_pm());
        assert!(frag.is_deterministic());
        assert!(frag.template.negation_count() > 0);
    }

    #[test]
    fn nonzero_euler_not_fragmentable_by_us() {
        // Proposition 4.6 contrapositive: our constructor refuses e ≠ 0.
        let f = intext_boolfn::max_euler_fn(3);
        assert!(Fragmentation::of(&f).is_err());
    }

    #[test]
    fn fragmentation_exhaustive_k2() {
        // Corollary 5.4, constructive half: every e = 0 function on 3
        // variables is fragmentable, with verified determinism.
        for t in 0..256u64 {
            if small::euler(3, t) != 0 {
                continue;
            }
            let phi = BoolFn::from_table_u64(3, t);
            let frag = Fragmentation::of(&phi).unwrap();
            assert_eq!(frag.to_boolfn(), phi, "t={t:#x}");
            assert!(frag.is_deterministic(), "t={t:#x}");
            assert!(frag.leaves.iter().all(BoolFn::is_degenerate), "t={t:#x}");
        }
    }

    #[test]
    fn gate_counts() {
        let frag = Fragmentation::of(&phi9()).unwrap();
        let t = &frag.template;
        assert!(t.gate_count() >= frag.num_leaves() - 1);
        assert_eq!(
            t.gate_count(),
            t.negation_count() + (frag.num_leaves() - 1) // one Or per non-initial leaf
        );
    }
}
