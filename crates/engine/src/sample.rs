//! Monte-Carlo anytime backend for the hard region.
//!
//! When `classify(φ)` lands in `HardMonotone`, `HardByTransfer`, or
//! `ConjecturedHard` and the instance is too large for brute force,
//! exact evaluation is off the table (#P-hard, Corollary 3.9 /
//! conjectured beyond the monotone Euler range). This module trades the
//! exact answer for a *bounded* one: an [`Estimate`] carrying an
//! `(ε, δ)` guarantee — `Pr[|value − p| > ε] ≤ δ` — computed by one of
//! two samplers:
//!
//! * **Karp–Luby** ([`SamplerKind::KarpLuby`]): the classic unbiased
//!   union-of-cubes estimator over the grounded lineage DNF (monotone
//!   `φ` only, via [`intext_query::lineage_dnf`]). Its estimator range
//!   is `[0, M]` where `M = Σ_j Pr(C_j)`, so Hoeffding gives
//!   `N = ⌈M²·ln(2/δ) / (2ε²)⌉` samples.
//! * **Naive world sampling** ([`SamplerKind::NaiveWorlds`]): Bernoulli
//!   worlds over the witness tuples of the `h_{k,i}`, each scored `1`
//!   iff `φ` holds on the `h_{k,i}` that have a fully present witness
//!   pair (Definitions 3.1–3.2). Indicator range `[0, 1]`, so
//!   `N = ⌈ln(2/δ) / (2ε²)⌉` regardless of instance size. This is the
//!   fallback when `φ` is non-monotone or the DNF grounding would blow
//!   up.
//!
//! **Determinism.** Every estimate is a pure function of
//! `(artifact, tid, seed, stream)`: the RNG is
//! [`StdRng::from_seed_stream`]`(cfg.seed, stream)` and all draws happen
//! in a fixed order, so batch sharding can hand each scenario its own
//! stream (derived from the *global* scenario index) and reproduce the
//! sequential run bit for bit. The only escape hatch is the optional
//! deadline: when it fires mid-run the estimate is truncated (with `ε`
//! widened to what the drawn samples actually support), and wall-clock
//! truncation is inherently not run-to-run deterministic.

use std::fmt;
use std::time::{Duration, Instant};

use intext_boolfn::BoolFn;
use intext_query::{h_witnesses, lineage_dnf, HQuery};
use intext_tid::{Tid, TupleId};
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration for the Monte-Carlo backend, carried in
/// [`EngineConfig::sampling`](crate::EngineConfig::sampling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingConfig {
    /// Additive error bound: the estimate is within `eps` of the true
    /// probability with probability at least `1 − delta`. Must be in
    /// `(0, 1)`.
    pub eps: f64,
    /// Failure probability of the `eps` bound. Must be in `(0, 1)`.
    pub delta: f64,
    /// Optional wall-clock budget per estimate. When it expires the
    /// sampler stops early and *widens* the reported `eps` to the bound
    /// the drawn samples actually support (anytime semantics); the
    /// estimate is then no longer run-to-run deterministic.
    pub deadline: Option<Duration>,
    /// Base seed of the deterministic RNG-stream family. Each scenario
    /// samples from stream `(seed, scenario index)`.
    pub seed: u64,
}

impl Default for SamplingConfig {
    /// `eps = 0.05`, `delta = 1e-3`, no deadline, a fixed seed — fully
    /// deterministic out of the box.
    fn default() -> Self {
        SamplingConfig {
            eps: 0.05,
            delta: 1e-3,
            deadline: None,
            seed: 0x7065_2026,
        }
    }
}

/// Which Monte-Carlo estimator ran (or would run — also used by dry-run
/// planning).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SamplerKind {
    /// Karp–Luby DNF sampling over the grounded monotone lineage.
    KarpLuby,
    /// Naive Bernoulli world sampling, each world scored on its witness
    /// pairs.
    NaiveWorlds,
}

impl fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerKind::KarpLuby => write!(f, "Karp-Luby DNF sampler"),
            SamplerKind::NaiveWorlds => write!(f, "naive world sampler"),
        }
    }
}

/// A bounded probability estimate: `Pr[|value − p| > eps] ≤ delta`.
///
/// Exact answers also fit this shape — [`PqeEngine::estimate`] returns
/// them with `eps = 0`, `delta = 0`, `samples = 0` and `sampler: None`,
/// so callers can treat every query uniformly.
///
/// [`PqeEngine::estimate`]: crate::PqeEngine::estimate
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// The estimated probability, clamped to `[0, 1]`.
    pub value: f64,
    /// The additive error bound this estimate guarantees. Equal to the
    /// configured `eps` unless a deadline truncated the run, in which
    /// case it is widened to what the drawn samples support.
    pub eps: f64,
    /// Failure probability of the bound (the configured `delta`; `0`
    /// for exact answers).
    pub delta: f64,
    /// Monte-Carlo samples drawn (`0` for exact answers).
    pub samples: u64,
    /// Wall time spent producing the estimate.
    pub elapsed: Duration,
    /// Which sampler produced the value; `None` when the answer is
    /// exact (non-sampling plan, or an empty union or constant lineage
    /// the sampler resolved without drawing).
    pub sampler: Option<SamplerKind>,
    /// `true` iff the deadline fired and `eps` was widened.
    pub deadline_hit: bool,
}

/// Compiled, probability-independent sampler input for one
/// `(φ, database)` shape — the sampling analogue of a cached circuit
/// artifact. Building it grounds the lineage once; [`run`](Self::run)
/// then serves every re-weighting of the same shape.
#[derive(Debug)]
pub(crate) enum SamplerArtifact {
    /// Karp–Luby input: the grounded DNF with clauses as dense indices
    /// into `support` (so world vectors are flat `Vec<bool>`s).
    Dnf {
        /// Distinct tuple ids the DNF mentions, ascending.
        support: Vec<u32>,
        /// Clauses as sorted indices into `support`.
        clauses: Vec<Vec<usize>>,
        cfg: SamplingConfig,
    },
    /// Naive-world input: `φ` and each `h_i`'s witness pairs as dense
    /// indices into `support` (so world vectors are flat `Vec<bool>`s).
    Worlds {
        phi: BoolFn,
        /// `witnesses[i]`: the pairs whose joint presence makes `h_i`
        /// hold, as indices into `support`.
        witnesses: Vec<Vec<(usize, usize)>>,
        /// Distinct tuple ids the witness pairs mention, ascending;
        /// empty when `φ` is `⊥`, whose lineage reads no tuple.
        support: Vec<u32>,
        cfg: SamplingConfig,
    },
}

impl SamplerArtifact {
    /// Grounds `q` on `tid`'s database into the artifact for `kind`.
    ///
    /// # Panics
    /// Panics if `kind` is [`SamplerKind::KarpLuby`] and `φ` is
    /// non-monotone — the planner only selects Karp–Luby for monotone
    /// lineages.
    pub(crate) fn build(kind: SamplerKind, q: &HQuery, tid: &Tid, cfg: SamplingConfig) -> Self {
        match kind {
            SamplerKind::KarpLuby => {
                let dnf = lineage_dnf(q, tid.database())
                    .expect("Karp-Luby requires a monotone lineage DNF");
                let support = dnf.support().to_vec();
                let clauses = dnf
                    .clauses()
                    .iter()
                    .map(|c| {
                        c.iter()
                            .map(|t| support.binary_search(t).expect("clause tuple in support"))
                            .collect()
                    })
                    .collect();
                SamplerArtifact::Dnf {
                    support,
                    clauses,
                    cfg,
                }
            }
            SamplerKind::NaiveWorlds => {
                let pairs: Vec<_> = if q.phi().is_bottom() {
                    Vec::new()
                } else {
                    (0..=q.k())
                        .map(|i| h_witnesses(tid.database(), i))
                        .collect()
                };
                let mut support: Vec<u32> = pairs
                    .iter()
                    .flatten()
                    .flat_map(|(a, b)| [a.0, b.0])
                    .collect();
                support.sort_unstable();
                support.dedup();
                let index = |t: TupleId| {
                    support
                        .binary_search(&t.0)
                        .expect("witness tuple in support")
                };
                let witnesses = pairs
                    .iter()
                    .map(|ps| ps.iter().map(|&(a, b)| (index(a), index(b))).collect())
                    .collect();
                SamplerArtifact::Worlds {
                    phi: q.phi().clone(),
                    witnesses,
                    support,
                    cfg,
                }
            }
        }
    }

    /// Which sampler this artifact drives.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> SamplerKind {
        match self {
            SamplerArtifact::Dnf { .. } => SamplerKind::KarpLuby,
            SamplerArtifact::Worlds { .. } => SamplerKind::NaiveWorlds,
        }
    }

    /// Runs the sampler on `tid` using RNG stream `(cfg.seed, stream)`.
    /// Pure in `(self, tid, stream)` barring deadline truncation.
    pub(crate) fn run(&self, tid: &Tid, stream: u64) -> Estimate {
        match self {
            SamplerArtifact::Dnf {
                support,
                clauses,
                cfg,
            } => run_karp_luby(support, clauses, *cfg, tid, stream),
            SamplerArtifact::Worlds {
                phi,
                witnesses,
                support,
                cfg,
            } => run_naive_worlds(phi, witnesses, support, *cfg, tid, stream),
        }
    }
}

/// Hoeffding sample count for a `[0, range]`-valued estimator:
/// `⌈range²·ln(2/δ) / (2ε²)⌉`, at least 1.
fn hoeffding_samples(range: f64, eps: f64, delta: f64) -> u64 {
    let n = (range * range * (2.0 / delta).ln() / (2.0 * eps * eps)).ceil();
    (n as u64).max(1)
}

/// The widened `ε` that `drawn` samples of a `[0, range]` estimator
/// support at confidence `1 − δ` (Hoeffding, inverted).
fn achieved_eps(range: f64, delta: f64, drawn: u64) -> f64 {
    if drawn == 0 {
        return 1.0;
    }
    range * ((2.0 / delta).ln() / (2.0 * drawn as f64)).sqrt()
}

/// An answer a sampler resolved without drawing: exact, so it carries
/// no sampler.
fn exact_estimate(value: f64, elapsed: Duration) -> Estimate {
    Estimate {
        value,
        eps: 0.0,
        delta: 0.0,
        samples: 0,
        elapsed,
        sampler: None,
        deadline_hit: false,
    }
}

/// Karp–Luby: sample a clause `j` with probability `Pr(C_j)/M`, then a
/// world conditioned on `C_j` being true; score `X = 1` iff no clause
/// *before* `j` is also satisfied. `E[M·X] = Pr(⋁ C_j)` exactly.
fn run_karp_luby(
    support: &[u32],
    clauses: &[Vec<usize>],
    cfg: SamplingConfig,
    tid: &Tid,
    stream: u64,
) -> Estimate {
    let start = Instant::now();
    let probs: Vec<f64> = support.iter().map(|&t| tid.prob_f64(TupleId(t))).collect();
    // Clause probabilities and their running prefix sum (the CDF the
    // clause draw inverts); M is the total union-bound mass.
    let mut prefix = Vec::with_capacity(clauses.len());
    let mut m = 0.0f64;
    for c in clauses {
        m += c.iter().map(|&i| probs[i]).product::<f64>();
        prefix.push(m);
    }
    if clauses.is_empty() || m <= 0.0 {
        // Empty DNF, or every clause has probability zero: the union is
        // the empty event and the answer is exact.
        return exact_estimate(0.0, start.elapsed());
    }
    let target = hoeffding_samples(m, cfg.eps, cfg.delta);
    let mut rng = StdRng::from_seed_stream(cfg.seed, stream);
    let mut present = vec![false; support.len()];
    let mut hits = 0u64;
    let mut drawn = 0u64;
    let mut deadline_hit = false;
    while drawn < target {
        if let Some(budget) = cfg.deadline {
            if drawn.is_multiple_of(512) && drawn > 0 && start.elapsed() >= budget {
                deadline_hit = true;
                break;
            }
        }
        let u: f64 = rng.random();
        let j = prefix
            .partition_point(|&cum| cum < u * m)
            .min(clauses.len() - 1);
        for (slot, &p) in present.iter_mut().zip(&probs) {
            *slot = rng.random::<f64>() < p;
        }
        for &i in &clauses[j] {
            present[i] = true;
        }
        if !clauses[..j].iter().any(|c| c.iter().all(|&i| present[i])) {
            hits += 1;
        }
        drawn += 1;
    }
    let value = (m * hits as f64 / drawn as f64).clamp(0.0, 1.0);
    let eps = if deadline_hit {
        cfg.eps.max(achieved_eps(m, cfg.delta, drawn))
    } else {
        cfg.eps
    };
    Estimate {
        value,
        eps,
        delta: cfg.delta,
        samples: drawn,
        elapsed: start.elapsed(),
        sampler: Some(SamplerKind::KarpLuby),
        deadline_hit,
    }
}

/// Naive world sampling: draw Bernoulli worlds over the witness tuples
/// and score each `1` iff `φ` holds on the `h_i` that have a fully
/// present witness pair — the lineage semantics of `Q_φ`.
fn run_naive_worlds(
    phi: &BoolFn,
    witnesses: &[Vec<(usize, usize)>],
    support: &[u32],
    cfg: SamplingConfig,
    tid: &Tid,
    stream: u64,
) -> Estimate {
    let start = Instant::now();
    let holds = |present: &[bool]| {
        let truth = witnesses
            .iter()
            .enumerate()
            .filter(|(_, pairs)| pairs.iter().any(|&(a, b)| present[a] && present[b]))
            .fold(0, |truth, (i, _)| truth | 1 << i);
        phi.eval(truth)
    };
    if support.is_empty() {
        // The lineage is constant: its value on the empty world.
        return exact_estimate(f64::from(u8::from(holds(&[]))), start.elapsed());
    }
    let probs: Vec<f64> = support.iter().map(|&t| tid.prob_f64(TupleId(t))).collect();
    let target = hoeffding_samples(1.0, cfg.eps, cfg.delta);
    let mut rng = StdRng::from_seed_stream(cfg.seed, stream);
    let mut present = vec![false; support.len()];
    let mut hits = 0u64;
    let mut drawn = 0u64;
    let mut deadline_hit = false;
    while drawn < target {
        if let Some(budget) = cfg.deadline {
            // The clock is read every 8 worlds.
            if drawn.is_multiple_of(8) && drawn > 0 && start.elapsed() >= budget {
                deadline_hit = true;
                break;
            }
        }
        for (slot, &p) in present.iter_mut().zip(&probs) {
            *slot = rng.random::<f64>() < p;
        }
        hits += u64::from(holds(&present));
        drawn += 1;
    }
    let value = (hits as f64 / drawn as f64).clamp(0.0, 1.0);
    let eps = if deadline_hit {
        cfg.eps.max(achieved_eps(1.0, cfg.delta, drawn))
    } else {
        cfg.eps
    };
    Estimate {
        value,
        eps,
        delta: cfg.delta,
        samples: drawn,
        elapsed: start.elapsed(),
        sampler: Some(SamplerKind::NaiveWorlds),
        deadline_hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_numeric::BigRational;
    use intext_query::pqe_brute_force;
    use intext_tid::{complete_database, uniform_tid};

    fn half() -> BigRational {
        BigRational::from_ratio(1, 2)
    }

    fn cfg(eps: f64, delta: f64) -> SamplingConfig {
        SamplingConfig {
            eps,
            delta,
            ..SamplingConfig::default()
        }
    }

    /// Both samplers hit the (ε, δ) contract on a hard monotone φ at a
    /// fixed seed, and the two artifacts of one query agree with the
    /// exact answer within ε.
    #[test]
    fn both_samplers_land_within_eps_of_brute_force() {
        let phi = BoolFn::from_fn(3, |v| v != 0); // HardMonotone
        let q = HQuery::new(phi);
        let tid = uniform_tid(complete_database(2, 2), half());
        let exact = pqe_brute_force::<BigRational>(&q, &tid).unwrap().to_f64();
        for kind in [SamplerKind::KarpLuby, SamplerKind::NaiveWorlds] {
            let art = SamplerArtifact::build(kind, &q, &tid, cfg(0.05, 1e-6));
            assert_eq!(art.kind(), kind);
            let est = art.run(&tid, 0);
            assert_eq!(est.sampler, Some(kind));
            assert!(est.samples > 0);
            assert!(!est.deadline_hit);
            assert!(
                (est.value - exact).abs() <= est.eps,
                "{kind}: |{} - {exact}| > {}",
                est.value,
                est.eps
            );
        }
    }

    /// Same stream ⟹ bit-identical; different streams ⟹ (almost
    /// surely) different estimates.
    #[test]
    fn streams_are_deterministic_and_independent() {
        let phi = BoolFn::from_fn(3, |v| v.count_ones() >= 2);
        let q = HQuery::new(phi);
        let tid = uniform_tid(complete_database(2, 2), half());
        for kind in [SamplerKind::KarpLuby, SamplerKind::NaiveWorlds] {
            let art = SamplerArtifact::build(kind, &q, &tid, cfg(0.02, 1e-3));
            let a = art.run(&tid, 7);
            let b = art.run(&tid, 7);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.samples, b.samples);
            let c = art.run(&tid, 8);
            assert_ne!(a.value.to_bits(), c.value.to_bits(), "{kind}");
        }
    }

    /// A constant-false lineage short-circuits to an exact zero without
    /// drawing samples, and an exact answer names no sampler.
    #[test]
    fn empty_union_is_exact_zero() {
        let phi = BoolFn::from_fn(2, |_| false);
        let q = HQuery::new(phi);
        let tid = uniform_tid(complete_database(1, 2), half());
        for kind in [SamplerKind::KarpLuby, SamplerKind::NaiveWorlds] {
            let art = SamplerArtifact::build(kind, &q, &tid, cfg(0.05, 1e-3));
            let est = art.run(&tid, 0);
            assert_eq!(est.value, 0.0);
            assert_eq!(est.samples, 0);
            assert_eq!(est.eps, 0.0);
            assert_eq!(est.sampler, None, "{kind}");
        }
    }

    /// A zero deadline truncates the run and widens ε accordingly.
    #[test]
    fn deadline_truncates_and_widens_eps() {
        let phi = BoolFn::from_fn(3, |v| v != 0);
        let q = HQuery::new(phi);
        let tid = uniform_tid(complete_database(2, 2), half());
        let tight = SamplingConfig {
            eps: 1e-3,
            delta: 1e-6,
            deadline: Some(Duration::ZERO),
            ..SamplingConfig::default()
        };
        for kind in [SamplerKind::KarpLuby, SamplerKind::NaiveWorlds] {
            let art = SamplerArtifact::build(kind, &q, &tid, tight);
            let est = art.run(&tid, 0);
            assert!(est.deadline_hit, "{kind}");
            assert!(est.eps > tight.eps, "{kind}: ε must widen on truncation");
            assert!(est.samples > 0, "at least one sample before the check");
        }
    }
}
