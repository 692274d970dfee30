//! The routing decision: which backend evaluates which query, and why.

use std::fmt;

use intext_core::Region;

use crate::{EngineError, SamplerKind};

/// The backend the planner chose for a query.
///
/// The plans correspond to the evaluation routes the engine implements
/// — the four Figure 1 routes for H-queries plus the two general-query
/// routes behind the UCQ front door; see `DESIGN.md` for the routing
/// diagram and the exact precedence rules.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Plan {
    /// Degenerate `φ`: compile a linear-size reduced OBDD by the
    /// grouped-order streaming automaton (Proposition 3.7). Cacheable.
    Obdd,
    /// Nondegenerate `φ` with `e(φ) = 0`: the paper's d-D pipeline —
    /// transformation, fragmentation, leaf OBDDs, template replay
    /// (Theorem 5.2). Cacheable.
    DdCircuit,
    /// `#P`-hard (or conjectured-hard) `φ` on an instance small enough
    /// for exhaustive possible-worlds enumeration.
    BruteForce,
    /// `#P`-hard (or conjectured-hard) `φ` on an instance beyond the
    /// brute-force budget, with sampling enabled: a Monte-Carlo
    /// `(ε, δ)`-bounded estimate by the named sampler.
    Sample(SamplerKind),
    /// A general (non-H-shaped) query that passed the Dalvi–Suciu
    /// safety test: lifted inference over the query structure.
    /// Produces no reusable artifact.
    Lifted,
    /// A general query that is neither H-shaped nor safe, on an
    /// instance within the grounding budget: ground the lineage and
    /// compile an OBDD over raw tuple ids. Cacheable.
    GroundCircuit,
}

impl Plan {
    /// Does this plan produce a compiled artifact the engine can cache
    /// and re-walk under new tuple probabilities?
    pub fn is_cacheable(self) -> bool {
        matches!(self, Plan::Obdd | Plan::DdCircuit | Plan::GroundCircuit)
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Obdd => write!(f, "OBDD (Proposition 3.7)"),
            Plan::DdCircuit => write!(f, "d-D pipeline (Theorem 5.2)"),
            Plan::BruteForce => write!(f, "brute force over possible worlds"),
            Plan::Sample(kind) => write!(f, "Monte-Carlo sampling ({kind})"),
            Plan::Lifted => write!(f, "lifted inference (Dalvi-Suciu safe plan)"),
            Plan::GroundCircuit => write!(f, "grounded lineage circuit"),
        }
    }
}

/// How one sharded batch call was (or would be) executed, from
/// [`PqeEngine::plan_batch`](crate::PqeEngine::plan_batch); also
/// recorded as `EngineStats::last_batch` by
/// [`PqeEngine::evaluate_batch_sharded`](crate::PqeEngine::evaluate_batch_sharded).
///
/// The interesting invariant: `compiles + shared` counts every
/// *cacheable* scenario exactly once, so `compiles` is the number of
/// distinct artifacts the batch had to build and `shared` the number of
/// pure re-walks the compile amortized over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPlan {
    /// Scenarios in the workload.
    pub scenarios: usize,
    /// Worker threads the scenarios were fanned across (clamped to
    /// `1..=scenarios`).
    pub shards: usize,
    /// Scenario evaluations that compiled a fresh artifact (cache
    /// misses, including recompiles forced by eviction).
    pub compiles: usize,
    /// Scenario evaluations served by an already-shared artifact.
    pub shared: usize,
    /// Scenarios routed to the Monte-Carlo sampler ([`Plan::Sample`]) —
    /// the compile/sample split a dry run reports for mixed hard/easy
    /// workloads.
    pub sampled: usize,
}

impl fmt::Display for BatchPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scenarios over {} shard(s): {} compile(s), {} shared walk(s), {} sampled",
            self.scenarios, self.shards, self.compiles, self.shared, self.sampled
        )
    }
}

/// The planner's reasoning for one query, from
/// [`PqeEngine::explain`](crate::PqeEngine::explain).
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Where `φ` lives on the paper's Figure 1 map.
    pub region: Region,
    /// Tuple count of the instance the decision was made for.
    pub tuples: usize,
    /// The chosen plan, or why no sound plan exists.
    pub plan: Result<Plan, EngineError>,
    /// Whether a compiled artifact for `(φ, database shape)` is already
    /// in the engine's cache.
    pub cached: bool,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let region = match self.region {
            Region::DegenerateObdd => "degenerate (Q_φ ∈ OBDD(PTIME), Proposition 3.7)",
            Region::ZeroEulerDD => "nondegenerate with e(φ) = 0 (Q_φ ∈ d-D(PTIME), Theorem 5.2)",
            Region::HardMonotone => "monotone with e(φ) ≠ 0 (#P-hard, Corollary 3.9)",
            Region::HardByTransfer => "non-monotone, e(φ) ≠ 0 (#P-hard by transfer, Prop 6.4)",
            Region::ConjecturedHard => "e(φ) beyond the monotone range (conjectured #P-hard)",
            Region::SafeLifted => "a safe non-H query (lifted inference, PTIME)",
            Region::GroundCircuit => "an unsafe non-H query (grounded circuit, budgeted)",
        };
        let subject = match self.region {
            Region::SafeLifted | Region::GroundCircuit => "the query",
            _ => "φ",
        };
        write!(f, "{subject} is {region}; ")?;
        match &self.plan {
            Ok(plan) => {
                write!(f, "plan: {plan} on {} tuples", self.tuples)?;
                if plan.is_cacheable() {
                    if self.cached {
                        write!(f, " [artifact cached: linear re-walk, no recompilation]")?;
                    } else {
                        write!(f, " [cold: will compile and cache]")?;
                    }
                }
                if matches!(plan, Plan::Sample(_)) {
                    write!(
                        f,
                        " [sampling chosen: hard region, instance exceeds the \
                         brute-force budget; answer is an (ε, δ)-bounded estimate]"
                    )?;
                }
                Ok(())
            }
            Err(e) => write!(f, "no sound plan: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cacheability_per_plan() {
        assert!(Plan::Obdd.is_cacheable());
        assert!(Plan::DdCircuit.is_cacheable());
        assert!(!Plan::BruteForce.is_cacheable());
        assert!(!Plan::Sample(SamplerKind::KarpLuby).is_cacheable());
        assert!(!Plan::Sample(SamplerKind::NaiveWorlds).is_cacheable());
        assert!(!Plan::Lifted.is_cacheable());
        assert!(Plan::GroundCircuit.is_cacheable());
    }

    #[test]
    fn general_route_explanations_name_the_route() {
        let lifted = Explanation {
            region: Region::SafeLifted,
            tuples: 40,
            plan: Ok(Plan::Lifted),
            cached: false,
        };
        let s = lifted.to_string();
        assert!(s.contains("lifted inference"), "{s}");
        assert!(s.contains("safe"), "{s}");
        let ground = Explanation {
            region: Region::GroundCircuit,
            tuples: 12,
            plan: Ok(Plan::GroundCircuit),
            cached: true,
        };
        let s = ground.to_string();
        assert!(s.contains("grounded lineage circuit"), "{s}");
        assert!(s.contains("cached"), "{s}");
    }

    #[test]
    fn sample_explanation_names_sampler_and_reason() {
        let e = Explanation {
            region: Region::HardMonotone,
            tuples: 500,
            plan: Ok(Plan::Sample(SamplerKind::KarpLuby)),
            cached: false,
        };
        let s = e.to_string();
        assert!(s.contains("#P-hard"), "{s}");
        assert!(s.contains("Karp-Luby"), "{s}");
        assert!(s.contains("sampling chosen"), "{s}");
        assert!(s.contains("(ε, δ)-bounded"), "{s}");
    }

    #[test]
    fn explanation_renders_plan_and_cache_state() {
        let e = Explanation {
            region: Region::ZeroEulerDD,
            tuples: 12,
            plan: Ok(Plan::DdCircuit),
            cached: true,
        };
        let s = e.to_string();
        assert!(s.contains("d-D pipeline"), "{s}");
        assert!(s.contains("cached"), "{s}");
        let cold = Explanation {
            cached: false,
            ..e.clone()
        };
        assert!(cold.to_string().contains("cold"), "{cold}");
    }

    #[test]
    fn batch_plan_renders_shards_and_amortization() {
        let bp = BatchPlan {
            scenarios: 1000,
            shards: 4,
            compiles: 1,
            shared: 996,
            sampled: 3,
        };
        let s = bp.to_string();
        assert!(s.contains("4 shard(s)"), "{s}");
        assert!(s.contains("1 compile(s)"), "{s}");
        assert!(s.contains("996 shared"), "{s}");
        assert!(s.contains("3 sampled"), "{s}");
    }

    #[test]
    fn explanation_renders_errors() {
        let e = Explanation {
            region: Region::HardMonotone,
            tuples: 1000,
            plan: Err(EngineError::Intractable {
                region: Region::HardMonotone,
                tuples: 1000,
                budget: 20,
            }),
            cached: false,
        };
        assert!(e.to_string().contains("no sound plan"), "{e}");
    }
}
