//! The `PqeEngine`: one pipeline — resolve, plan same-shape runs,
//! prepare each run once, execute over `(runs, shards)` — behind every
//! evaluation, plus the artifact cache and live updates.

use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use intext_circuits::{EvalScratch, LANES};
use intext_core::{classify, Region};
use intext_lineage::DegenerateLineage;
use intext_numeric::{BigRational, ProbNum};
use intext_query::{
    dnf_clause_bound, ground_circuit, is_safe_ucq, lifted_probability, pqe_brute_force,
    recognize_h, HQuery, Query, QueryExpr, Ucq,
};
use intext_tid::{Database, Relation, Tid, TidError, TupleDesc, TupleId};

use crate::cache::{Artifact, ArtifactCache, CacheKey};
use crate::sample::{SampleRun, SamplerArtifact};
use crate::stats::duration_nanos;
use crate::store::{self, ArtifactKind, StoreError, TupleUpdate};
use crate::{
    BatchPlan, EngineStats, Estimate, Explanation, Plan, QueryStats, SamplerKind, SamplingConfig,
};

/// Largest grounded DNF (clause bound, pre-deduplication) the planner
/// hands to the Karp–Luby sampler; beyond it the naive world sampler
/// takes over, whose per-sample cost is bounded by the circuit size
/// rather than the clause count.
const MAX_KARP_LUBY_CLAUSES: u64 = 4096;

/// What a [`PqeEngine::load_cache`] / [`PqeEngine::import_artifact`]
/// call admitted into the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Artifacts decoded, validated and offered to the cache (each also
    /// counted in [`EngineStats::artifact_loads`]).
    pub artifacts: usize,
    /// Total leaf OBDD nodes across the loaded artifacts (the unit of
    /// the cache budget; the field keeps its historical name).
    pub gates: usize,
    /// Entries the LRU evicted while admitting them — nonzero only when
    /// the snapshot does not fit the configured node budget (an
    /// oversized artifact also counts itself, exactly as on the compile
    /// path).
    pub evictions: u64,
}

/// Knobs for the planner; the defaults are the production-shaped choices.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Hard queries are brute-forced only up to this many tuples
    /// (`2^tuples` possible worlds); larger instances return
    /// [`EngineError::Intractable`]. Capped at 63 by the world bitmask.
    pub max_brute_force_tuples: usize,
    /// Budget of the artifact cache, in leaf OBDD nodes retained (the
    /// root-reachable nodes of every cached artifact's leaves; the name
    /// dates from when d-D artifacts were gate circuits); `None` keeps
    /// every artifact forever. When the budget
    /// overflows, least-recently-used artifacts are evicted and counted
    /// in [`EngineStats::cache_evictions`]. Can be changed later with
    /// [`PqeEngine::set_cache_budget`].
    pub cache_gate_budget: Option<usize>,
    /// Monte-Carlo fallback for the hard region: when set, hard queries
    /// beyond the brute-force budget get an `(ε, δ)`-bounded
    /// [`Plan::Sample`] estimate instead of
    /// [`EngineError::Intractable`]. `None` (the default) keeps the
    /// refuse-to-guess behaviour.
    pub sampling: Option<SamplingConfig>,
    /// General queries that are neither H-shaped nor Dalvi–Suciu safe
    /// ground their lineage to a circuit ([`Plan::GroundCircuit`]) only
    /// up to this many tuples; larger instances return
    /// [`EngineError::GroundingTooLarge`]. Grounding is worst-case
    /// exponential in the instance, so the budget is the planner's
    /// promise that an unsafe query cannot silently blow up.
    pub max_ground_tuples: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_brute_force_tuples: 20,
            cache_gate_budget: None,
            sampling: None,
            max_ground_tuples: 64,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration — the check
    /// [`PqeEngine::try_with_config`] runs before accepting it. Every
    /// invalid knob is a typed [`ConfigError`], never a panic.
    ///
    /// * `max_brute_force_tuples` must be ≤ 63: brute force enumerates
    ///   worlds as a `u64` bitmask, so 64+ would silently promise worlds
    ///   it cannot enumerate (previously this was clamped without a
    ///   word; now it is a typed error).
    /// * When sampling is enabled, `eps` and `delta` must lie in the
    ///   open interval `(0, 1)` — outside it the Hoeffding sample count
    ///   is meaningless (0, ∞, or NaN).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_brute_force_tuples > 63 {
            return Err(ConfigError::BruteForceBudgetTooLarge {
                requested: self.max_brute_force_tuples,
            });
        }
        if let Some(s) = self.sampling {
            if !(s.eps > 0.0 && s.eps < 1.0) {
                return Err(ConfigError::InvalidEps { eps: s.eps });
            }
            if !(s.delta > 0.0 && s.delta < 1.0) {
                return Err(ConfigError::InvalidDelta { delta: s.delta });
            }
        }
        Ok(())
    }
}

/// A rejected [`EngineConfig`], from [`PqeEngine::try_with_config`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `max_brute_force_tuples` exceeds 63, the widest world bitmask
    /// brute force can enumerate.
    BruteForceBudgetTooLarge {
        /// The rejected budget.
        requested: usize,
    },
    /// The sampling `eps` is outside the open interval `(0, 1)` (or not
    /// finite).
    InvalidEps {
        /// The rejected value.
        eps: f64,
    },
    /// The sampling `delta` is outside the open interval `(0, 1)` (or
    /// not finite).
    InvalidDelta {
        /// The rejected value.
        delta: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BruteForceBudgetTooLarge { requested } => write!(
                f,
                "max_brute_force_tuples = {requested} exceeds 63, the widest \
                 possible-worlds bitmask brute force can enumerate"
            ),
            ConfigError::InvalidEps { eps } => {
                write!(
                    f,
                    "sampling eps = {eps} must lie in the open interval (0, 1)"
                )
            }
            ConfigError::InvalidDelta { delta } => {
                write!(
                    f,
                    "sampling delta = {delta} must lie in the open interval (0, 1)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors from planning or evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The query's chain length differs from the database vocabulary.
    VocabularyMismatch {
        /// `k` of the query's `φ`.
        query_k: u8,
        /// `k` of the database.
        database_k: u8,
    },
    /// `PQE(Q_φ)` is (conjectured) `#P`-hard and the instance exceeds
    /// the brute-force budget: no sound backend exists.
    Intractable {
        /// The Figure 1 region the query was classified into.
        region: Region,
        /// Tuple count of the instance.
        tuples: usize,
        /// The configured brute-force budget it exceeded.
        budget: usize,
    },
    /// A general query that is neither H-shaped nor Dalvi–Suciu safe
    /// must ground its lineage, and the instance exceeds
    /// [`EngineConfig::max_ground_tuples`].
    GroundingTooLarge {
        /// Tuple count of the instance.
        tuples: usize,
        /// The configured grounding budget it exceeded.
        budget: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::VocabularyMismatch {
                query_k,
                database_k,
            } => write!(
                f,
                "query is over k={query_k} but the database has k={database_k}"
            ),
            EngineError::Intractable {
                region,
                tuples,
                budget,
            } => write!(
                f,
                "query classified {region:?} (#P-hard side of Figure 1) and \
                 {tuples} tuples exceed the brute-force budget of {budget}"
            ),
            EngineError::GroundingTooLarge { tuples, budget } => write!(
                f,
                "query is unsafe and not H-shaped, and {tuples} tuples exceed \
                 the grounding budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// The unified PQE front door: classifies `φ` on the paper's Figure 1
/// map, routes to the cheapest sound backend, caches compiled lineage
/// artifacts across probability re-weightings, and keeps
/// [`EngineStats`] for every decision it makes.
///
/// See the crate-level docs for a usage example and `DESIGN.md` for the
/// routing diagram and the concurrency model.
#[derive(Debug)]
pub struct PqeEngine {
    config: EngineConfig,
    cache: ArtifactCache,
    stats: EngineStats,
}

/// A [`Query`] resolved into the routing family the planner works
/// with. Resolution is pure (no engine state): H-shaped queries —
/// whether built as [`HQuery`] or *recognized* in a parsed general
/// query — flow into the full Figure 1 machinery (classification,
/// artifact cache, lane kernel, patching, sampling) with zero extra
/// work; general queries split by the Dalvi–Suciu safety test.
enum Resolved {
    /// H-shaped: `Q_φ` over the chain vocabulary, routed by Figure 1.
    H(Arc<HQuery>),
    /// General and Dalvi–Suciu safe: lifted inference, PTIME, no
    /// artifact.
    Lifted {
        /// The normalized union of conjunctive queries.
        ucq: Arc<Ucq>,
        /// Largest binary-relation index the query mentions, plus one —
        /// the minimum vocabulary `k` an instance must provide.
        required_k: u8,
    },
    /// General and unsafe (or non-UCQ): ground the lineage to an OBDD
    /// over raw tuple ids, within [`EngineConfig::max_ground_tuples`].
    Ground {
        /// The query expression to ground per instance.
        expr: Arc<QueryExpr>,
        /// Canonical rendering of the normalized expression — the
        /// text component of the ground [`CacheKey`], so syntactic
        /// variants of one query share an artifact.
        text: Arc<str>,
        /// Minimum vocabulary `k` an instance must provide.
        required_k: u8,
    },
}

/// The routing decision for one instance, carrying exactly what
/// preparing it needs.
enum Route {
    /// A cacheable plan: fetch the artifact, or compile it.
    Artifact(Recipe),
    /// [`Plan::BruteForce`].
    BruteForce(Arc<HQuery>),
    /// [`Plan::Lifted`].
    Lifted(Arc<Ucq>),
    /// [`Plan::Sample`]: ground the sampler, run it per scenario.
    Sample {
        query: Arc<HQuery>,
        kind: SamplerKind,
        config: SamplingConfig,
    },
}

/// How a cacheable route compiles its artifact.
enum Recipe {
    /// [`Plan::Obdd`]: Proposition 3.7's OBDD for a degenerate `φ`.
    Obdd(Arc<HQuery>),
    /// [`Plan::DdCircuit`]: Theorem 5.2's d-D for a zero-Euler `φ`.
    Dd(Arc<HQuery>),
    /// [`Plan::GroundCircuit`]: the grounded lineage of an unsafe query.
    Ground {
        expr: Arc<QueryExpr>,
        text: Arc<str>,
    },
}

impl Route {
    fn plan(&self) -> Plan {
        match self {
            Route::Artifact(Recipe::Obdd(_)) => Plan::Obdd,
            Route::Artifact(Recipe::Dd(_)) => Plan::DdCircuit,
            Route::Artifact(Recipe::Ground { .. }) => Plan::GroundCircuit,
            Route::BruteForce(_) => Plan::BruteForce,
            Route::Lifted(_) => Plan::Lifted,
            Route::Sample { kind, .. } => Plan::Sample(*kind),
        }
    }
}

impl Recipe {
    /// The artifact-cache key on `db`.
    fn cache_key(&self, db: &Database) -> CacheKey {
        match self {
            Recipe::Obdd(q) | Recipe::Dd(q) => CacheKey::new(q.phi(), db),
            Recipe::Ground { text, .. } => CacheKey::for_ground(text, db),
        }
    }

    /// Compiles the artifact on `db`. The planner already established
    /// the backend preconditions (vocabulary match, degeneracy / zero
    /// Euler characteristic, grounding budget), so this cannot fail.
    fn compile(&self, db: &Database) -> Artifact {
        match self {
            Recipe::Obdd(q) => intext_lineage::compile_degenerate_obdd(q.phi(), db)
                .expect("planner guarantees a degenerate φ on a matching vocabulary")
                .into(),
            Recipe::Dd(q) => {
                intext_core::compile_dd(q.phi(), db).expect("planner guarantees e(φ) = 0")
            }
            Recipe::Ground { expr, .. } => {
                let (manager, root) = ground_circuit(expr, db);
                // Split 0 and no unroll trace: a ground artifact walks
                // and lane-batches like any degenerate OBDD but is never
                // structurally patched (the trace is what patching
                // replays), so live updates simply leave it to recompile.
                DegenerateLineage::new(manager, root, 0).into()
            }
        }
    }
}

/// Consecutive same-shape scenarios and their routing decision, as
/// [`PqeEngine::plan_runs`] leaves them: nothing fetched or compiled.
struct PlannedRun {
    route: Route,
    scenarios: Range<usize>,
}

/// The shared state of one prepared run, one variant per backend.
enum Backend {
    /// A cached or just compiled artifact.
    Artifact(Arc<Artifact>),
    /// Possible-worlds enumeration.
    BruteForce(Arc<HQuery>),
    /// Lifted inference over a safe UCQ.
    Lifted(Arc<Ucq>),
    /// A sampler grounded once per run (it depends only on the shape).
    Sampler(SamplerArtifact),
}

/// A prepared run: a planned query whose shared state — the cached
/// `Arc<Artifact>` or a grounded sampler — has already been fetched or
/// built, so evaluation is a **pure function of the prepared state**:
/// no cache probe, no lock, no `&mut PqeEngine`. This is the unit of
/// work the serve layer hands its worker pool; `PreparedQuery` is
/// `Send + Sync`, and many threads may evaluate the same preparation
/// concurrently.
///
/// Obtain one from [`PqeEngine::prepare`], or a batch of them from
/// [`PqeEngine::prepare_batch`] (both may compile, so they take
/// `&mut self`). Every evaluation records one
/// [`QueryStats`] per scenario into the *caller's* [`EngineStats`], so
/// worker-local stats merged back via [`EngineStats::merge`] equal the
/// counters a sequential engine evaluating the same requests would
/// report — the invariant the serve-layer differential tests pin.
pub struct PreparedQuery {
    plan: Plan,
    backend: Backend,
    /// The batch positions this run covers (`0..1` for a single query).
    scenarios: Range<usize>,
    cache_hit: bool,
    compile_time: Duration,
}

/// What the one walker does differently per answer type. Every
/// computation it runs — the artifact pass, brute force, lifted
/// inference — is one function generic over [`ProbNum`].
trait Answer: ProbNum + Send {
    /// Whether an artifact run walks [`LANES`] scenarios per pass: the
    /// lane kernel computes in `f64`, so only `f64` answers come from it
    /// (exact walks stay scalar).
    const LANES: bool;
    /// A floating-point value embedded exactly: a sampler's estimate, or
    /// one lane of a kernel pass (an f64 is a dyadic rational).
    fn embed(value: f64) -> Self;
}

impl Answer for BigRational {
    const LANES: bool = false;
    fn embed(value: f64) -> Self {
        BigRational::from_f64(value).expect("estimates are finite by construction")
    }
}

impl Answer for f64 {
    const LANES: bool = true;
    fn embed(value: f64) -> Self {
        value
    }
}

/// Reusable lane-kernel scratch for [`PreparedQuery::eval_run_f64`]:
/// one per worker thread, reused across runs so steady-state batch
/// evaluation allocates nothing.
#[derive(Default)]
pub struct LaneScratch {
    scratch: EvalScratch,
}

impl LaneScratch {
    /// Empty scratch; buffers grow to the largest run evaluated.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PreparedQuery {
    /// The backend the planner chose.
    pub fn plan(&self) -> Plan {
        self.plan
    }

    /// Whether the artifact came from the cache (always `false` for
    /// non-cacheable plans).
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Size of the compiled artifact in leaf OBDD nodes, when the plan
    /// is cacheable.
    pub fn circuit_size(&self) -> Option<usize> {
        match &self.backend {
            Backend::Artifact(artifact) => Some(artifact.size()),
            _ => None,
        }
    }

    /// Exact `PQE(Q)` on `tid`, recording one [`QueryStats`] into
    /// `stats`. `stream` is the scenario's global batch position (the
    /// RNG stream under a [`Plan::Sample`] route — pass `0` for a
    /// standalone query to match [`PqeEngine::evaluate`] bit for bit).
    pub fn eval_exact(&self, tid: &Tid, stream: u64, stats: &mut EngineStats) -> BigRational {
        self.eval_scalar(tid, stream, 0, stats).0
    }

    /// Floating-point [`eval_exact`](Self::eval_exact), bit-identical to
    /// [`PqeEngine::evaluate_f64`] at `stream = 0`.
    pub fn eval_f64(&self, tid: &Tid, stream: u64, stats: &mut EngineStats) -> f64 {
        self.eval_scalar(tid, stream, 0, stats).0
    }

    /// `PQE(Q)` as a uniformly-shaped [`Estimate`], bit-identical to
    /// [`PqeEngine::estimate`] at `stream = 0`: exact routes come back
    /// with `eps = delta = 0`, [`Plan::Sample`] routes Monte-Carlo
    /// bounded.
    pub fn eval_estimate(&self, tid: &Tid, stream: u64, stats: &mut EngineStats) -> Estimate {
        let started = Instant::now();
        let (value, sampled) = self.eval_scalar::<f64>(tid, stream, 0, stats);
        sampled.unwrap_or(Estimate {
            value,
            eps: 0.0,
            delta: 0.0,
            samples: 0,
            elapsed: started.elapsed(),
            sampler: None,
            deadline_hit: false,
        })
    }

    /// Evaluates a contiguous same-shape run of scenarios in f64,
    /// through the lane-batched kernel when the plan carries an
    /// artifact — bit-identical to [`PqeEngine::evaluate_f64`] per
    /// scenario (the kernel's fixed-op-order contract), pushing one
    /// probability per scenario onto `out` and recording one
    /// [`QueryStats`] per scenario (the first as the run head). `base`
    /// is the run's global batch offset: scenario `i` of the run samples
    /// from RNG stream `base + i`.
    pub fn eval_run_f64(
        &self,
        tids: &[Tid],
        base: u64,
        scratch: &mut LaneScratch,
        out: &mut Vec<f64>,
        stats: &mut EngineStats,
    ) {
        self.walk(tids, base, 0, Some(scratch), out, stats);
    }

    /// The [`QueryStats`] of scenario `offset` of this run: the run head
    /// carries the preparation's compile/hit attribution, every later
    /// scenario is a shared walk (a hit iff the run has an artifact).
    fn record_at(&self, offset: usize, eval_time: Duration) -> QueryStats {
        let shared = offset > 0;
        QueryStats {
            plan: self.plan,
            cache_hit: self.cache_hit || (shared && self.circuit_size().is_some()),
            circuit_size: self.circuit_size(),
            compile_time: if shared {
                Duration::ZERO
            } else {
                self.compile_time
            },
            eval_time,
            samples: 0,
        }
    }

    /// One scenario through this run's backend, recorded as scenario
    /// `offset` of the run, plus the sampler's estimate if one ran.
    fn eval_scalar<N: Answer>(
        &self,
        tid: &Tid,
        stream: u64,
        offset: usize,
        stats: &mut EngineStats,
    ) -> (N, Option<Estimate>) {
        let started = Instant::now();
        let (p, sampled): (N, Option<SampleRun>) = match &self.backend {
            Backend::Artifact(artifact) => (artifact.probability(tid), None),
            Backend::BruteForce(q) => (
                pqe_brute_force(q, tid).expect("planner bounds the instance below 64 tuples"),
                None,
            ),
            Backend::Lifted(ucq) => (
                lifted_probability(ucq, tid).expect("the planner verified the safety test"),
                None,
            ),
            Backend::Sampler(sampler) => {
                let run = sampler.run(tid, stream);
                (N::embed(run.estimate.value), Some(run))
            }
        };
        let mut record = self.record_at(offset, started.elapsed());
        if let Some(run) = sampled {
            record.samples = run.estimate.samples;
            stats.lane_kernel_calls += run.kernel_calls;
        }
        stats.record(record);
        (p, sampled.map(|run| run.estimate))
    }

    /// The one walker: evaluates `tids` — scenarios `offset..` of this
    /// run, at batch positions `stream..` — pushing and recording one
    /// result each. Given `lanes`, an `f64` artifact run walks [`LANES`]
    /// scenarios per pass ([`Artifact::walk`] on `[f64; LANES]` blocks,
    /// each support variable's block read straight from the block's
    /// TIDs), the block's wall time, reads included, split evenly across
    /// its lanes; everything else walks scalar.
    fn walk<N: Answer>(
        &self,
        tids: &[Tid],
        stream: u64,
        offset: usize,
        lanes: Option<&mut LaneScratch>,
        out: &mut Vec<N>,
        stats: &mut EngineStats,
    ) {
        let (Backend::Artifact(artifact), Some(lanes), true) = (&self.backend, lanes, N::LANES)
        else {
            for (i, tid) in tids.iter().enumerate() {
                out.push(
                    self.eval_scalar(tid, stream + i as u64, offset + i, stats)
                        .0,
                );
            }
            return;
        };
        for (block_idx, block) in tids.chunks(LANES).enumerate() {
            let started = Instant::now();
            // A ragged block's trailing lanes are walked but never read
            // back.
            let lane_probs = |v| {
                std::array::from_fn(|lane| {
                    block.get(lane).map_or(0.0, |tid| tid.prob_f64(TupleId(v)))
                })
            };
            let ps = artifact.walk(lane_probs, &mut lanes.scratch);
            let per_lane = started.elapsed() / block.len() as u32;
            stats.lane_kernel_calls += 1;
            for (lane, p) in ps.into_iter().take(block.len()).enumerate() {
                out.push(N::embed(p));
                stats.record(self.record_at(offset + block_idx * LANES + lane, per_lane));
            }
        }
    }
}

/// A batch whose runs are all planned, then prepared: the executor's
/// input.
pub struct PreparedBatch {
    runs: Vec<PreparedQuery>,
}

/// The number of workers a request for `shards` shards over
/// `scenarios` scenarios actually runs: contiguous chunks of
/// `ceil(scenarios / shards)`, so small workloads use fewer workers
/// than asked and `shards == 0` is treated as `1`.
fn shard_count(scenarios: usize, shards: usize) -> usize {
    if scenarios == 0 {
        return 0;
    }
    let shards = shards.clamp(1, scenarios);
    scenarios.div_ceil(scenarios.div_ceil(shards))
}

/// The [`BatchPlan`] of `scenarios` at `shards`, from each run's
/// `(compiles, shared walks, sampled)` counts.
fn batch_plan(
    scenarios: usize,
    shards: usize,
    runs: impl Iterator<Item = (usize, usize, usize)>,
) -> BatchPlan {
    let (compiles, shared, sampled) = runs.fold((0, 0, 0), |(c, s, x), (dc, ds, dx)| {
        (c + dc, s + ds, x + dx)
    });
    BatchPlan {
        scenarios,
        shards: shard_count(scenarios, shards),
        compiles,
        shared,
        sampled,
    }
}

impl PreparedBatch {
    /// Exact probabilities of `tids` (the scenarios this batch was
    /// planned for), fanned across `shards` workers; see
    /// [`PqeEngine::evaluate_batch_sharded`].
    pub fn eval_exact(
        &self,
        tids: &[Tid],
        shards: usize,
        stats: &mut EngineStats,
    ) -> Vec<BigRational> {
        self.execute(tids, shards, stats)
    }

    /// Floating-point [`eval_exact`](Self::eval_exact) through the lane
    /// kernel; see [`PqeEngine::evaluate_batch_sharded_f64`].
    pub fn eval_f64(&self, tids: &[Tid], shards: usize, stats: &mut EngineStats) -> Vec<f64> {
        self.execute(tids, shards, stats)
    }

    /// The one executor. Scenarios split into [`shard_count`] contiguous
    /// chunks, and each chunk walks its slice of every run it overlaps
    /// through one reused [`LaneScratch`]. Workers only read —
    /// `Arc<Artifact>` walks take `&self`, the other backends are pure
    /// functions of `(query, tid)` — and record into their own
    /// [`EngineStats`], merged in chunk order, so the counters equal a
    /// sequential run's. One shard runs inline. Scenario `i` samples
    /// from RNG stream `i` whatever chunk runs it, which is what makes
    /// sharded sampling bit-identical to sequential.
    fn execute<N: Answer>(&self, tids: &[Tid], shards: usize, stats: &mut EngineStats) -> Vec<N> {
        let shards = shard_count(tids.len(), shards);
        let chunk = tids.len().div_ceil(shards.max(1));
        let walk_chunk = |start: usize, out: &mut Vec<N>, stats: &mut EngineStats| {
            let end = (start + chunk).min(tids.len());
            let mut lanes = LaneScratch::new();
            for run in &self.runs {
                let (from, to) = (run.scenarios.start.max(start), run.scenarios.end.min(end));
                if from < to {
                    let offset = from - run.scenarios.start;
                    run.walk(
                        &tids[from..to],
                        from as u64,
                        offset,
                        Some(&mut lanes),
                        out,
                        stats,
                    );
                }
            }
        };
        let mut out = Vec::with_capacity(tids.len());
        if shards <= 1 {
            walk_chunk(0, &mut out, stats);
            return out;
        }
        let walk_chunk = &walk_chunk;
        let parts: Vec<(Vec<N>, EngineStats)> = thread::scope(|scope| {
            let workers: Vec<_> = (0..tids.len())
                .step_by(chunk)
                .map(|start| {
                    scope.spawn(move || {
                        let (mut part, mut local) =
                            (Vec::with_capacity(chunk), EngineStats::default());
                        walk_chunk(start, &mut part, &mut local);
                        (part, local)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        });
        for (part, local) in parts {
            out.extend(part);
            stats.merge(&local);
        }
        out
    }

    /// How this batch executes at `shards`: the compile/share/sample
    /// split its preparation actually produced.
    fn batch_plan(&self, scenarios: usize, shards: usize) -> BatchPlan {
        let runs = self.runs.iter().map(|run| {
            let (len, compiled) = (run.scenarios.len(), usize::from(!run.cache_hit));
            match run.backend {
                Backend::Artifact(_) => (compiled, len - compiled, 0),
                Backend::Sampler(_) => (0, 0, len),
                Backend::BruteForce(_) | Backend::Lifted(_) => (0, 0, 0),
            }
        });
        batch_plan(scenarios, shards, runs)
    }
}

impl Default for PqeEngine {
    fn default() -> Self {
        Self::with_config(EngineConfig::default())
    }
}

impl PqeEngine {
    /// An engine with the default [`EngineConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with an explicit configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`EngineConfig::validate`];
    /// [`try_with_config`](Self::try_with_config) is the non-panicking
    /// variant.
    pub fn with_config(config: EngineConfig) -> Self {
        Self::try_with_config(config).unwrap_or_else(|e| panic!("invalid EngineConfig: {e}"))
    }

    /// An engine with an explicit configuration, rejecting invalid ones
    /// with a typed [`ConfigError`] instead of panicking.
    pub fn try_with_config(config: EngineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(PqeEngine {
            cache: ArtifactCache::new(config.cache_gate_budget),
            config,
            stats: EngineStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Lifetime statistics (plans chosen, cache hits/misses/evictions,
    /// wall time).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Zeroes the statistics; the artifact cache is untouched.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Mutable statistics access for the crate's maintenance paths
    /// (recovery counts quarantines and replayed WAL records here).
    pub(crate) fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// Number of compiled artifacts currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Total leaf OBDD nodes currently retained by the
    /// cache; never exceeds the budget.
    pub fn cache_gates(&self) -> usize {
        self.cache.total_gates()
    }

    /// The cache's node budget (`None` = unbounded).
    pub fn cache_budget(&self) -> Option<usize> {
        self.cache.budget()
    }

    /// Replaces the cache's node budget, evicting immediately if the
    /// retained artifacts no longer fit.
    pub fn set_cache_budget(&mut self, budget: Option<usize>) {
        self.config.cache_gate_budget = budget;
        self.stats.cache_evictions += self.cache.set_budget(budget);
    }

    /// Drops every cached artifact (not counted as evictions).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Serializes the whole artifact cache into one versioned bundle
    /// (format spec: `DESIGN.md` §5 and the [`store`](crate::store)
    /// docs). Entries are written in ascending last-used order, so
    /// [`load_cache`](Self::load_cache) replays the LRU recency ranking
    /// — and the bytes are deterministic, which is what lets CI pin
    /// golden fixtures. Probabilities are never serialized, for the same
    /// reason they are not in the cache key: one stored artifact serves
    /// every re-weighting. Grounded general-query artifacts are skipped:
    /// the store format addresses artifacts by `φ`, and a ground OBDD
    /// is cheap to rebuild from its query text on first use.
    pub fn save_cache(&self) -> Vec<u8> {
        let entries: Vec<_> = self
            .cache
            .entries_lru_order()
            .into_iter()
            .filter(|(key, _)| !key.is_ground())
            .collect();
        store::encode_bundle(&entries)
    }

    /// Warm-starts this engine from a [`save_cache`](Self::save_cache)
    /// bundle: every artifact is decoded, structurally revalidated
    /// against its recomputed [`CacheKey`], and admitted through the
    /// normal LRU insert path (budget enforced, evictions counted), so a
    /// warmed replica replays the saved workload with zero compiles —
    /// `misses == 0` and `artifact_loads == distinct shapes` in
    /// [`EngineStats`].
    ///
    /// Total and all-or-nothing: any malformed byte returns a typed
    /// [`StoreError`] *before* the cache or the statistics are touched.
    pub fn load_cache(&mut self, bytes: &[u8]) -> Result<LoadReport, StoreError> {
        let artifacts = store::decode_bundle(bytes)?;
        Ok(self.admit(artifacts))
    }

    /// Serializes the cached artifact for `(q.phi(), db shape)` into a
    /// standalone blob importable by
    /// [`import_artifact`](Self::import_artifact) on any engine. Reads
    /// the cache without bumping recency (like
    /// [`explain`](Self::explain), exporting must not perturb eviction
    /// order); returns [`StoreError::NotCached`] when the artifact is
    /// not resident.
    pub fn export_artifact(&self, q: &HQuery, db: &Database) -> Result<Vec<u8>, StoreError> {
        let key = CacheKey::new(q.phi(), db);
        let artifact = self.cache.peek(&key).ok_or(StoreError::NotCached)?;
        Ok(store::encode_artifact(&key, artifact))
    }

    /// Decodes, revalidates and admits one exported artifact. The same
    /// totality contract as [`load_cache`](Self::load_cache): malformed
    /// input returns a typed [`StoreError`] and leaves the engine
    /// untouched.
    pub fn import_artifact(&mut self, bytes: &[u8]) -> Result<LoadReport, StoreError> {
        let decoded = store::decode_artifact(bytes)?;
        Ok(self.admit(vec![decoded]))
    }

    /// Inserts already-validated artifacts through the normal LRU path,
    /// counting loads and evictions.
    fn admit(&mut self, artifacts: Vec<(CacheKey, Artifact)>) -> LoadReport {
        let mut report = LoadReport::default();
        for (key, artifact) in artifacts {
            let (handle, evicted) = self.cache.insert(key, artifact);
            self.stats.cache_evictions += evicted;
            self.stats.artifact_loads += 1;
            report.artifacts += 1;
            report.gates += handle.size();
            report.evictions += evicted;
        }
        report
    }

    /// Inserts a tuple into a live TID **and incrementally patches every
    /// cached artifact** compiled for the pre-insert shape (any `φ`), so
    /// the next evaluation is a cache hit instead of a recompile. The
    /// patch re-unrolls only the stream prefix up to the new tuple's
    /// slot and transplants the rest of the Proposition 3.7 unroll (for
    /// a d-D, per affected degenerate leaf), producing an artifact
    /// bit-identical to a fresh compile (`DESIGN.md` §9). Counted in
    /// [`EngineStats::patches_applied`] / `patch_nanos` /
    /// `full_recompiles_avoided`; artifacts that cannot be patched
    /// (e.g. deserialized without their unroll trace) are simply left
    /// under their old key — never a wrong answer, the new shape just
    /// recompiles on first use.
    ///
    /// A failed insert (duplicate tuple, out-of-domain constant, bad
    /// probability) changes nothing: not the TID, not the cache.
    pub fn insert_tuple(
        &mut self,
        tid: &mut Tid,
        desc: TupleDesc,
        p: BigRational,
    ) -> Result<TupleId, TidError> {
        let old_db = tid.database().clone();
        let id = tid.insert(desc, p)?;
        self.patch_all_artifacts(&old_db, tid.database());
        Ok(id)
    }

    /// Removes a tuple from a live TID, incrementally patching every
    /// cached artifact of the pre-remove shape — the contraction dual of
    /// [`insert_tuple`](Self::insert_tuple), with the same counters and
    /// the same bit-identity guarantee. Tuple ids above the removed one
    /// shift down by one (see [`intext_tid::Database::remove`]); the
    /// patched artifacts are renumbered accordingly.
    pub fn remove_tuple(
        &mut self,
        tid: &mut Tid,
        id: TupleId,
    ) -> Result<(TupleDesc, BigRational), TidError> {
        let old_db = tid.database().clone();
        let removed = tid.remove(id)?;
        self.patch_all_artifacts(&old_db, tid.database());
        Ok(removed)
    }

    /// Replaces one tuple's probability. **No artifact is touched**:
    /// cache keys deliberately exclude probabilities, so every cached
    /// same-shape artifact stays valid as-is and the next evaluation is
    /// a pure re-walk. Each such artifact counts one
    /// [`EngineStats::full_recompiles_avoided`] — the win the
    /// intensional representation exists for, made observable.
    pub fn set_probability(
        &mut self,
        tid: &mut Tid,
        id: TupleId,
        p: BigRational,
    ) -> Result<(), TidError> {
        tid.set_prob(id, p)?;
        let valid = self
            .cache
            .keys()
            .filter(|key| Self::key_matches_shape(key, tid.database()))
            .count();
        self.stats.full_recompiles_avoided += valid as u64;
        Ok(())
    }

    /// Serializes a live tuple update against the **pre-update** shape
    /// of `db` into a delta blob (format: the [`store`](crate::store)
    /// docs), shippable to replicas holding the same artifact. Call
    /// *before* applying the update locally — the delta names the shape
    /// its receivers still have. Requires the pre-update artifact to be
    /// cached ([`StoreError::NotCached`] otherwise): a delta against an
    /// artifact nobody holds could never be applied incrementally.
    pub fn export_delta(
        &self,
        q: &HQuery,
        db: &Database,
        update: &TupleUpdate,
    ) -> Result<Vec<u8>, StoreError> {
        let key = CacheKey::new(q.phi(), db);
        if !self.cache.contains(&key) {
            return Err(StoreError::NotCached);
        }
        Ok(store::encode_delta(&key, update))
    }

    /// Applies an exported update delta: decodes and validates it,
    /// replays the operation on the delta's pre-update shape, and brings
    /// this engine's cache up to date — by **incremental patch** when
    /// the pre-update artifact is resident (counted in
    /// [`EngineStats::patches_applied`]), by a full compile of the
    /// post-update artifact otherwise. Either way the cached result is
    /// bit-identical to a fresh compile, so a replica stream of deltas
    /// can never drift from the source engine.
    ///
    /// Total like the other import paths: malformed bytes, an operation
    /// illegal on the shape (duplicate insert, unknown remove id), or a
    /// `(φ, shape)` pair this engine could never compile all return a
    /// typed [`StoreError`] before any state changes.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<LoadReport, StoreError> {
        let (phi, old_db, update) = store::decode_delta(bytes)?;
        let mut new_db = old_db.clone();
        match &update {
            TupleUpdate::Insert { desc } => {
                new_db.insert(*desc).map_err(StoreError::BadTuple)?;
            }
            TupleUpdate::Remove { id } => {
                new_db.remove(TupleId(*id)).map_err(StoreError::BadTuple)?;
            }
        }
        // The engine only ever compiles the two cacheable regions, on a
        // matching vocabulary; a delta for anything else is one no
        // engine could have exported.
        let q = Arc::new(HQuery::new(phi));
        let region = classify(q.phi());
        let (kind, recipe) = match region {
            Region::DegenerateObdd => (ArtifactKind::Obdd, Recipe::Obdd(Arc::clone(&q))),
            Region::ZeroEulerDD => (ArtifactKind::Dd, Recipe::Dd(Arc::clone(&q))),
            _ => {
                let kind = ArtifactKind::Obdd;
                return Err(StoreError::PlanMismatch { kind, region });
            }
        };
        if q.k() != new_db.k() {
            return Err(StoreError::PlanMismatch { kind, region });
        }
        let old_key = recipe.cache_key(&old_db);
        let (handle, evicted) = match self.patch_step(&old_key, &old_db, &new_db) {
            Some(patched) => patched,
            None => {
                // Cold replica (or an unpatchable resident): compile the
                // post-update artifact from scratch. The superseded
                // pre-update artifact — resident but unpatchable, e.g.
                // deserialized without its unroll trace — is evicted by
                // the same `patch` rekeying the incremental path uses:
                // the delta says that shape no longer exists, so a
                // recovered replica converges to the same cache contents
                // as the patched source.
                let new_key = recipe.cache_key(&new_db);
                let compiled = Arc::new(recipe.compile(&new_db));
                let (handle, evicted) = self.cache.patch(&old_key, new_key, compiled);
                self.stats.cache_evictions += evicted;
                (handle, evicted)
            }
        };
        self.stats.artifact_loads += 1;
        Ok(LoadReport {
            artifacts: 1,
            gates: handle.size(),
            evictions: evicted,
        })
    }

    /// `true` iff `key` was built over exactly `db`'s shape (any `φ`) —
    /// the filter the live-update paths use to find every cached
    /// artifact a structural change affects.
    fn key_matches_shape(key: &CacheKey, db: &Database) -> bool {
        key.k() == db.k()
            && key.domain_size() == db.domain_size()
            && key.tuples().len() == db.len()
            && db.iter().zip(key.tuples()).all(|((_, t), &kt)| t == kt)
    }

    /// The one patch step: incrementally patches the artifact cached
    /// under `old_key` across `old_db → new_db` and re-keys it under the
    /// post-update [`CacheKey`], counting
    /// [`EngineStats::patches_applied`] / [`EngineStats::patch_nanos`] /
    /// [`EngineStats::full_recompiles_avoided`] and any evictions.
    /// Returns the patched artifact and the eviction count, or `None`
    /// when nothing resident can be patched (no unroll trace, more than
    /// one slot changed, shape parameters differ) — the cache is then
    /// untouched.
    fn patch_step(
        &mut self,
        old_key: &CacheKey,
        old_db: &Database,
        new_db: &Database,
    ) -> Option<(Arc<Artifact>, u64)> {
        let started = Instant::now();
        let patched = self.cache.peek(old_key)?.patched(old_db, new_db)?;
        let new_key = CacheKey::new(old_key.phi(), new_db);
        let (handle, evicted) = self.cache.patch(old_key, new_key, Arc::new(patched));
        self.stats.cache_evictions += evicted;
        self.stats.patches_applied += 1;
        self.stats.full_recompiles_avoided += 1;
        self.stats.patch_nanos += duration_nanos(started.elapsed());
        Some((handle, evicted))
    }

    /// Patches every cached artifact keyed to `old_db`'s shape over to
    /// `new_db`'s through the [`patch_step`](Self::patch_step).
    /// Unpatchable artifacts stay under their old key: their key still
    /// truthfully names the shape they were compiled for, so they are
    /// merely idle (and age out of the LRU), never wrong.
    fn patch_all_artifacts(&mut self, old_db: &Database, new_db: &Database) {
        // Ground artifacts are excluded up front: they carry no unroll
        // trace (never patchable), and re-keying derives the new key
        // from `φ`, which a ground key does not have.
        let affected: Vec<CacheKey> = self
            .cache
            .keys()
            .filter(|key| !key.is_ground() && Self::key_matches_shape(key, old_db))
            .cloned()
            .collect();
        for old_key in affected {
            self.patch_step(&old_key, old_db, new_db);
        }
    }

    /// Resolves a [`Query`] into the routing family the planner works
    /// with, against a database vocabulary of chain length `k`. Pure —
    /// no engine state is read or written:
    ///
    /// 1. an H-built query stays H ([`Resolved::H`]);
    /// 2. a general query whose normalized shape *is* an `H`-query at
    ///    `k` is recognized ([`recognize_h`]) and mapped onto the full
    ///    `φ + h_{k,i}` machinery — caches, lane kernel, patching and
    ///    sampling apply with zero extra compiles;
    /// 3. a negation-free query that passes the Dalvi–Suciu safety test
    ///    becomes [`Resolved::Lifted`];
    /// 4. everything else grounds per instance ([`Resolved::Ground`]).
    ///
    /// A general query needing a longer chain than the instance
    /// provides fails here with [`EngineError::VocabularyMismatch`];
    /// H-queries keep their exact-`k` check in [`route`](Self::route),
    /// per instance.
    fn resolve(q: &Query, k: u8) -> Result<Resolved, EngineError> {
        if let Some(h) = q.as_h() {
            return Ok(Resolved::H(Arc::new(h.clone())));
        }
        let (expr, _voc) = q.general().expect("a Query is either H or general");
        let required_k = q.required_k();
        if required_k > k {
            return Err(EngineError::VocabularyMismatch {
                query_k: required_k,
                database_k: k,
            });
        }
        if let Some(h) = recognize_h(expr, k) {
            return Ok(Resolved::H(Arc::new(h)));
        }
        if let Some(ucq) = expr.to_ucq() {
            let ucq = ucq.normalize();
            if is_safe_ucq(&ucq) {
                return Ok(Resolved::Lifted {
                    ucq: Arc::new(ucq),
                    required_k,
                });
            }
        }
        // Canonical, vocabulary-independent text: the ground cache key.
        let text: Arc<str> = Arc::from(
            expr.normalize_leaves()
                .render(&|rel: Relation| rel.to_string()),
        );
        Ok(Resolved::Ground {
            expr: Arc::new(expr.clone()),
            text,
            required_k,
        })
    }

    /// The Figure 1 region of an H resolution, or the off-map region of
    /// a general one.
    fn region_of(r: &Resolved) -> Region {
        match r {
            Resolved::H(q) => classify(q.phi()),
            Resolved::Lifted { .. } => Region::SafeLifted,
            Resolved::Ground { .. } => Region::GroundCircuit,
        }
    }

    /// The routing decision for an already-resolved query on `tid` —
    /// the per-instance half of [`plan`](Self::plan), run once per
    /// same-shape run by [`plan_runs`](Self::plan_runs).
    fn route(&self, r: &Resolved, tid: &Tid) -> Result<Route, EngineError> {
        let database_k = tid.database().k();
        match r {
            Resolved::H(q) => {
                if database_k != q.k() {
                    return Err(EngineError::VocabularyMismatch {
                        query_k: q.k(),
                        database_k,
                    });
                }
                match classify(q.phi()) {
                    Region::DegenerateObdd => Ok(Route::Artifact(Recipe::Obdd(Arc::clone(q)))),
                    Region::ZeroEulerDD => Ok(Route::Artifact(Recipe::Dd(Arc::clone(q)))),
                    region @ (Region::HardMonotone
                    | Region::HardByTransfer
                    | Region::ConjecturedHard) => {
                        // Validated ≤ 63 at construction (ConfigError otherwise).
                        let budget = self.config.max_brute_force_tuples;
                        if tid.len() <= budget {
                            Ok(Route::BruteForce(Arc::clone(q)))
                        } else if let Some(config) = self.config.sampling {
                            Ok(Route::Sample {
                                query: Arc::clone(q),
                                kind: Self::sampler_kind(q, tid),
                                config,
                            })
                        } else {
                            Err(EngineError::Intractable {
                                region,
                                tuples: tid.len(),
                                budget,
                            })
                        }
                    }
                    Region::SafeLifted | Region::GroundCircuit => {
                        unreachable!("classify is defined on H-queries only")
                    }
                }
            }
            Resolved::Lifted { required_k, .. } | Resolved::Ground { required_k, .. }
                if *required_k > database_k =>
            {
                Err(EngineError::VocabularyMismatch {
                    query_k: *required_k,
                    database_k,
                })
            }
            Resolved::Lifted { ucq, .. } => Ok(Route::Lifted(Arc::clone(ucq))),
            Resolved::Ground { expr, text, .. } => {
                let budget = self.config.max_ground_tuples;
                if tid.len() <= budget {
                    Ok(Route::Artifact(Recipe::Ground {
                        expr: Arc::clone(expr),
                        text: Arc::clone(text),
                    }))
                } else {
                    Err(EngineError::GroundingTooLarge {
                        tuples: tid.len(),
                        budget,
                    })
                }
            }
        }
    }

    /// The routing decision for `q` on `tid`, without evaluating.
    /// Accepts anything convertible into a [`Query`]: an [`HQuery`]
    /// (by reference or value), a parsed general query, or a `Query`
    /// built from an expression.
    ///
    /// Precedence for H-shaped queries — built as [`HQuery`] or
    /// recognized in a parsed query (soundness argument in
    /// `DESIGN.md`):
    ///
    /// 1. degenerate `φ` → [`Plan::Obdd`] (Proposition 3.7);
    /// 2. `e(φ) = 0` → [`Plan::DdCircuit`] (Theorem 5.2; by
    ///    Corollary 5.3 this covers every safe H⁺-query);
    /// 3. otherwise `PQE(Q_φ)` is `#P`-hard or conjectured so →
    ///    [`Plan::BruteForce`] within the budget; beyond it,
    ///    [`Plan::Sample`] when [`EngineConfig::sampling`] is enabled
    ///    (Karp–Luby over the grounded DNF when `φ` is monotone and the
    ///    grounding is small enough, naive world sampling otherwise),
    ///    else [`EngineError::Intractable`].
    ///
    /// General queries that are not H-shaped split by the Dalvi–Suciu
    /// safety test: safe → [`Plan::Lifted`] (PTIME, no artifact);
    /// unsafe → [`Plan::GroundCircuit`] within
    /// [`EngineConfig::max_ground_tuples`], else
    /// [`EngineError::GroundingTooLarge`].
    pub fn plan(&self, q: impl Into<Query>, tid: &Tid) -> Result<Plan, EngineError> {
        let resolved = Self::resolve(&q.into(), tid.database().k())?;
        self.route(&resolved, tid).map(|route| route.plan())
    }

    /// Which sampler a [`Plan::Sample`] query runs: Karp–Luby needs a
    /// monotone lineage whose grounded DNF stays affordable (clause
    /// bound ≤ [`MAX_KARP_LUBY_CLAUSES`], checked *without* grounding);
    /// everything else falls back to naive world sampling through the
    /// lane kernel.
    fn sampler_kind(q: &HQuery, tid: &Tid) -> SamplerKind {
        match dnf_clause_bound(q, tid.database()) {
            Some(bound) if bound <= MAX_KARP_LUBY_CLAUSES => SamplerKind::KarpLuby,
            _ => SamplerKind::NaiveWorlds,
        }
    }

    /// The full routing rationale for `q` on `tid`: region (Figure 1
    /// for H-shaped queries, the off-map general regions otherwise),
    /// chosen plan (or why none exists), and whether the artifact is
    /// already cached.
    pub fn explain(&self, q: impl Into<Query>, tid: &Tid) -> Explanation {
        let q = q.into();
        match Self::resolve(&q, tid.database().k()) {
            Ok(resolved) => {
                let route = self.route(&resolved, tid);
                let cached = matches!(&route, Ok(Route::Artifact(recipe))
                    if self.cache.contains(&recipe.cache_key(tid.database())));
                Explanation {
                    region: Self::region_of(&resolved),
                    tuples: tid.len(),
                    plan: route.map(|route| route.plan()),
                    cached,
                }
            }
            Err(e) => {
                // The instance's vocabulary is too short to resolve the
                // query against; re-resolve at the query's own k for a
                // best-effort region (that resolution cannot mismatch).
                let region = Self::resolve(&q, q.required_k())
                    .map_or(Region::GroundCircuit, |r| Self::region_of(&r));
                Explanation {
                    region,
                    tuples: tid.len(),
                    plan: Err(e),
                    cached: false,
                }
            }
        }
    }

    /// Exact `PQE(Q)` through the planner: resolves, routes, compiles
    /// or reuses a cached artifact, evaluates, and records
    /// [`QueryStats`]. Accepts an [`HQuery`] or any general [`Query`].
    ///
    /// Under a [`Plan::Sample`] route the returned rational is the
    /// sampler's `(ε, δ)`-bounded estimate embedded exactly (an f64 is
    /// a dyadic rational) — use [`estimate`](Self::estimate) when the
    /// error bound itself matters.
    pub fn evaluate(&mut self, q: impl Into<Query>, tid: &Tid) -> Result<BigRational, EngineError> {
        let prepared = self.prepare(q, tid)?;
        Ok(prepared.eval_exact(tid, 0, &mut self.stats))
    }

    /// Floating-point `PQE(Q)` through the same planner and cache
    /// (used by the benchmarks; cached-artifact walks stay linear and
    /// scalar — no lane-kernel call). [`Plan::Sample`] routes return the
    /// Monte-Carlo estimate's value.
    pub fn evaluate_f64(&mut self, q: impl Into<Query>, tid: &Tid) -> Result<f64, EngineError> {
        let prepared = self.prepare(q, tid)?;
        Ok(prepared.eval_f64(tid, 0, &mut self.stats))
    }

    /// `PQE(Q)` as a uniformly-shaped [`Estimate`]: exact routes come
    /// back with `eps = delta = 0` and `sampler: None`; hard queries
    /// beyond the brute-force budget (with sampling enabled) come back
    /// Monte-Carlo-bounded with the sampler named. This is the anytime
    /// front door the hard region previously lacked.
    pub fn estimate(&mut self, q: impl Into<Query>, tid: &Tid) -> Result<Estimate, EngineError> {
        let prepared = self.prepare(q, tid)?;
        Ok(prepared.eval_estimate(tid, 0, &mut self.stats))
    }

    /// The one run planner: resolves `q` once, splits `tids` into
    /// maximal runs of consecutive same-shape scenarios, and plans each
    /// run from its head (a plan depends on a TID only through its
    /// shape). Pure, so a batch with an unsound scenario anywhere fails
    /// before anything is fetched or compiled. One scenario is one run.
    fn plan_runs(&self, q: impl Into<Query>, tids: &[Tid]) -> Result<Vec<PlannedRun>, EngineError> {
        let Some(first) = tids.first() else {
            return Ok(Vec::new());
        };
        let resolved = Self::resolve(&q.into(), first.database().k())?;
        let mut runs: Vec<PlannedRun> = Vec::new();
        for (i, tid) in tids.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if tid.database().same_shape(tids[i - 1].database()) => {
                    run.scenarios.end += 1;
                }
                _ => runs.push(PlannedRun {
                    route: self.route(&resolved, tid)?,
                    scenarios: i..i + 1,
                }),
            }
        }
        Ok(runs)
    }

    /// The one preparer: builds planned `run`'s shared state from its
    /// head scenario. An artifact route serves its artifact from the
    /// cache (a hit refreshes its LRU recency), or compiles and caches
    /// it when cold; the other routes build their state here.
    /// Hit/miss attribution is recorded at evaluation time.
    fn prepare_run(&mut self, run: PlannedRun, tids: &[Tid]) -> PreparedQuery {
        let tid = &tids[run.scenarios.start];
        let plan = run.route.plan();
        let (backend, cache_hit, compile_time) = match run.route {
            Route::Artifact(recipe) => {
                let key = recipe.cache_key(tid.database());
                match self.cache.get(&key) {
                    Some(artifact) => (Backend::Artifact(artifact), true, Duration::ZERO),
                    None => {
                        let started = Instant::now();
                        let compiled = recipe.compile(tid.database());
                        let compile_time = started.elapsed();
                        let (artifact, evicted) = self.cache.insert(key, compiled);
                        self.stats.cache_evictions += evicted;
                        (Backend::Artifact(artifact), false, compile_time)
                    }
                }
            }
            Route::BruteForce(q) => (Backend::BruteForce(q), false, Duration::ZERO),
            Route::Lifted(ucq) => (Backend::Lifted(ucq), false, Duration::ZERO),
            Route::Sample {
                query,
                kind,
                config,
            } => {
                let started = Instant::now();
                let sampler = SamplerArtifact::build(kind, &query, tid, config);
                (Backend::Sampler(sampler), false, started.elapsed())
            }
        };
        PreparedQuery {
            plan,
            backend,
            scenarios: run.scenarios,
            cache_hit,
            compile_time,
        }
    }

    /// Plans and prepares `(q, tid)` for evaluation — a batch of one
    /// ([`prepare_batch`](Self::prepare_batch)).
    pub fn prepare(
        &mut self,
        q: impl Into<Query>,
        tid: &Tid,
    ) -> Result<PreparedQuery, EngineError> {
        let mut batch = self.prepare_batch(q, std::slice::from_ref(tid))?;
        // One scenario plans to exactly one run.
        Ok(batch.runs.swap_remove(0))
    }

    /// Plans and prepares a batch for evaluation: every run of
    /// consecutive same-shape scenarios is planned first, so a batch
    /// with an unsound scenario anywhere fails with no compile, no cache
    /// change and no counted query; then each run fetches or compiles
    /// its shared state once, in scenario order, so the hit, miss and
    /// eviction counters equal a sequential run's. The batch then
    /// evaluates with no engine access at all
    /// ([`PreparedBatch::eval_exact`], [`PreparedBatch::eval_f64`]).
    pub fn prepare_batch(
        &mut self,
        q: impl Into<Query>,
        tids: &[Tid],
    ) -> Result<PreparedBatch, EngineError> {
        let runs = self.plan_runs(q, tids)?;
        let runs = runs
            .into_iter()
            .map(|run| self.prepare_run(run, tids))
            .collect();
        Ok(PreparedBatch { runs })
    }

    /// Dry-runs the sharded batch: how many workers would run, how many
    /// scenarios would compile vs share an artifact — without compiling
    /// or evaluating anything.
    ///
    /// The compile/share split assumes no evictions happen *during* the
    /// batch (a dry run cannot know artifact sizes before compiling
    /// them); with a tight budget and many distinct shapes the real
    /// [`evaluate_batch_sharded`](Self::evaluate_batch_sharded) may
    /// compile more.
    pub fn plan_batch(
        &self,
        q: impl Into<Query>,
        scenarios: &[Tid],
        shards: usize,
    ) -> Result<BatchPlan, EngineError> {
        let mut simulated: HashSet<CacheKey> = HashSet::new();
        let runs = self.plan_runs(q, scenarios)?;
        let tallies = runs.iter().map(|run| {
            let len = run.scenarios.len();
            match &run.route {
                Route::Artifact(recipe) => {
                    let key = recipe.cache_key(scenarios[run.scenarios.start].database());
                    let compiled = usize::from(!self.cache.contains(&key) && simulated.insert(key));
                    (compiled, len - compiled, 0)
                }
                Route::Sample { .. } => (0, 0, len),
                Route::BruteForce(_) | Route::Lifted(_) => (0, 0, 0),
            }
        });
        Ok(batch_plan(scenarios.len(), shards, tallies))
    }

    /// Exact `PQE(Q)` on every scenario of a workload, fanned across
    /// `shards` worker threads — bit-identical to evaluating each
    /// scenario alone (scenario `i` samples from RNG stream `i`), with
    /// one compilation per distinct shape. Three phases (sequence
    /// diagram in `DESIGN.md`):
    ///
    /// 1. **Plan** ([`prepare_batch`](Self::prepare_batch)): every
    ///    scenario, up front and pure — an unsound scenario anywhere
    ///    fails here, so on error *nothing* has happened: no compile,
    ///    no cache mutation, no eviction, no stats.
    /// 2. **Prepare** (the same call): each same-shape run fetches or
    ///    compiles its shared state once, in scenario order, so
    ///    hit/miss/eviction counters equal a sequential run's.
    /// 3. **Execute** ([`PreparedBatch::eval_exact`]): contiguous
    ///    scenario chunks walk on `std::thread::scope` workers (one
    ///    shard runs inline), each recording into its own
    ///    [`EngineStats`], merged in chunk order; the [`BatchPlan`]
    ///    lands in `EngineStats::last_batch`.
    pub fn evaluate_batch_sharded(
        &mut self,
        q: impl Into<Query>,
        scenarios: &[Tid],
        shards: usize,
    ) -> Result<Vec<BigRational>, EngineError> {
        self.run_batch(q, scenarios, shards)
    }

    /// Floating-point [`evaluate_batch_sharded`](Self::evaluate_batch_sharded)
    /// through the **lane-batched evaluation kernel**: inside its chunk,
    /// each worker walks every same-artifact run [`LANES`] scenarios per
    /// forward pass ([`Artifact::walk`] on `[f64; LANES]` blocks) through a
    /// worker-private scratch — zero steady-state allocations, and each
    /// kernel invocation counts one [`EngineStats::lane_kernel_calls`].
    /// Results stay bit-identical to a per-scenario
    /// [`evaluate_f64`](Self::evaluate_f64) loop (the kernel's
    /// fixed-op-order contract).
    pub fn evaluate_batch_sharded_f64(
        &mut self,
        q: impl Into<Query>,
        scenarios: &[Tid],
        shards: usize,
    ) -> Result<Vec<f64>, EngineError> {
        self.run_batch(q, scenarios, shards)
    }

    /// Plan → prepare → execute for both sharded batch methods.
    fn run_batch<N: Answer>(
        &mut self,
        q: impl Into<Query>,
        scenarios: &[Tid],
        shards: usize,
    ) -> Result<Vec<N>, EngineError> {
        let batch = self.prepare_batch(q, scenarios)?;
        let out = batch.execute(scenarios, shards, &mut self.stats);
        self.stats.last_batch = Some(batch.batch_plan(scenarios.len(), shards));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::{max_euler_fn, phi9, BoolFn};
    use intext_tid::{complete_database, uniform_tid, TupleId};

    fn half() -> BigRational {
        BigRational::from_ratio(1, 2)
    }

    #[test]
    fn routes_and_caches_phi9() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        let tid = uniform_tid(complete_database(3, 1), half());
        assert_eq!(engine.plan(&q, &tid), Ok(Plan::DdCircuit));
        let p1 = engine.evaluate(&q, &tid).unwrap();
        let p2 = engine.evaluate(&q, &tid).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(engine.cache_len(), 1);
        assert_eq!(engine.stats().cache_misses, 1);
        assert_eq!(engine.stats().cache_hits, 1);
        let last = engine.stats().last.unwrap();
        assert!(last.cache_hit);
        assert_eq!(last.compile_time, Duration::ZERO);
        assert!(last.circuit_size.unwrap() > 0);
    }

    #[test]
    fn reweighting_hits_the_cache_and_changes_the_answer() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        let mut tid = uniform_tid(complete_database(3, 1), half());
        let before = engine.evaluate(&q, &tid).unwrap();
        tid.set_prob(TupleId(0), BigRational::from_ratio(1, 97))
            .unwrap();
        let after = engine.evaluate(&q, &tid).unwrap();
        assert_ne!(before, after);
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn degenerate_queries_take_the_obdd_route() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(BoolFn::var(4, 0)); // h_{3,0}: degenerate
        let tid = uniform_tid(complete_database(3, 2), half());
        assert_eq!(engine.plan(&q, &tid), Ok(Plan::Obdd));
        let p = engine.evaluate(&q, &tid).unwrap();
        let brute = pqe_brute_force(&q, &tid).unwrap();
        assert_eq!(p, brute);
        assert_eq!(engine.stats().plans(Plan::Obdd), 1);
    }

    #[test]
    fn brute_force_budget_is_validated_at_the_bitmask_boundary() {
        let ok = EngineConfig {
            max_brute_force_tuples: 63,
            ..EngineConfig::default()
        };
        assert!(PqeEngine::try_with_config(ok).is_ok());
        let too_big = EngineConfig {
            max_brute_force_tuples: 64,
            ..EngineConfig::default()
        };
        assert_eq!(
            PqeEngine::try_with_config(too_big).err(),
            Some(ConfigError::BruteForceBudgetTooLarge { requested: 64 })
        );
        let shown = ConfigError::BruteForceBudgetTooLarge { requested: 64 }.to_string();
        assert!(shown.contains("64"), "{shown}");
        assert!(shown.contains("63"), "{shown}");
    }

    #[test]
    #[should_panic(expected = "invalid EngineConfig")]
    fn with_config_panics_on_oversized_budget() {
        let _ = PqeEngine::with_config(EngineConfig {
            max_brute_force_tuples: 64,
            ..EngineConfig::default()
        });
    }

    #[test]
    fn sampling_eps_and_delta_are_validated() {
        for (eps, delta, want) in [
            (0.0, 0.01, Some(ConfigError::InvalidEps { eps: 0.0 })),
            (1.0, 0.01, Some(ConfigError::InvalidEps { eps: 1.0 })),
            (
                f64::NAN,
                0.01,
                Some(ConfigError::InvalidEps { eps: f64::NAN }),
            ),
            (0.1, 0.0, Some(ConfigError::InvalidDelta { delta: 0.0 })),
            (0.1, 1.5, Some(ConfigError::InvalidDelta { delta: 1.5 })),
            (0.1, 0.01, None),
        ] {
            let config = EngineConfig {
                sampling: Some(SamplingConfig {
                    eps,
                    delta,
                    ..SamplingConfig::default()
                }),
                ..EngineConfig::default()
            };
            let got = PqeEngine::try_with_config(config).err();
            // NaN never compares equal; match on the variant instead.
            match want {
                Some(ConfigError::InvalidEps { .. }) => {
                    assert!(matches!(got, Some(ConfigError::InvalidEps { .. })), "{eps}")
                }
                Some(ConfigError::InvalidDelta { .. }) => assert!(
                    matches!(got, Some(ConfigError::InvalidDelta { .. })),
                    "{delta}"
                ),
                _ => assert!(got.is_none(), "{eps}/{delta}"),
            }
        }
    }

    #[test]
    fn hard_queries_beyond_budget_sample_when_enabled() {
        let mut engine = PqeEngine::with_config(EngineConfig {
            max_brute_force_tuples: 4,
            sampling: Some(SamplingConfig {
                eps: 0.1,
                delta: 1e-4,
                ..SamplingConfig::default()
            }),
            ..EngineConfig::default()
        });
        // Monotone hard φ, 12 tuples > budget 4, small grounding:
        // Karp-Luby.
        let q = HQuery::new(BoolFn::from_fn(3, |v| v != 0));
        let tid = uniform_tid(complete_database(2, 2), half());
        assert_eq!(
            engine.plan(&q, &tid),
            Ok(Plan::Sample(SamplerKind::KarpLuby))
        );
        let est = engine.estimate(&q, &tid).unwrap();
        assert_eq!(est.sampler, Some(SamplerKind::KarpLuby));
        assert!(est.samples > 0);
        assert_eq!(engine.stats().plans(Plan::Sample(SamplerKind::KarpLuby)), 1);
        assert_eq!(engine.stats().samples_drawn, est.samples);
        assert!(engine.stats().sample_nanos > 0);
        // Non-monotone hard φ on the same instance: no DNF, so the
        // naive world sampler takes over.
        let q = HQuery::new(BoolFn::from_sat(3, [0b001, 0b010, 0b000]));
        assert_eq!(
            engine.plan(&q, &tid),
            Ok(Plan::Sample(SamplerKind::NaiveWorlds))
        );
        // evaluate/evaluate_f64 agree with estimate at the same stream.
        let est = engine.estimate(&q, &tid).unwrap();
        let f = engine.evaluate_f64(&q, &tid).unwrap();
        assert_eq!(est.value.to_bits(), f.to_bits());
        let exact = engine.evaluate(&q, &tid).unwrap();
        assert_eq!(exact, BigRational::from_f64(f).unwrap());
    }

    #[test]
    fn estimates_of_tractable_queries_are_exact() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        let tid = uniform_tid(complete_database(3, 1), half());
        let est = engine.estimate(&q, &tid).unwrap();
        assert_eq!(est.eps, 0.0);
        assert_eq!(est.delta, 0.0);
        assert_eq!(est.samples, 0);
        assert_eq!(est.sampler, None);
        let exact = pqe_brute_force::<BigRational>(&q, &tid).unwrap().to_f64();
        assert!((est.value - exact).abs() < 1e-12);
    }

    #[test]
    fn hard_queries_brute_force_within_budget_and_refuse_beyond() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(max_euler_fn(4));
        let small = uniform_tid(complete_database(3, 1), half());
        assert_eq!(engine.plan(&q, &small), Ok(Plan::BruteForce));
        let p = engine.evaluate(&q, &small).unwrap();
        assert_eq!(p, pqe_brute_force(&q, &small).unwrap());
        let big = uniform_tid(complete_database(3, 4), half());
        assert!(matches!(
            engine.plan(&q, &big),
            Err(EngineError::Intractable { budget: 20, .. })
        ));
        assert!(engine.evaluate(&q, &big).is_err());
    }

    #[test]
    fn vocabulary_mismatch_is_rejected_up_front() {
        let engine = PqeEngine::new();
        let q = HQuery::new(phi9()); // k = 3
        let tid = uniform_tid(complete_database(2, 2), half()); // k = 2
        assert_eq!(
            engine.plan(&q, &tid),
            Err(EngineError::VocabularyMismatch {
                query_k: 3,
                database_k: 2
            })
        );
    }

    #[test]
    fn batch_amortizes_one_compilation_across_scenarios() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        let base = uniform_tid(complete_database(3, 1), half());
        let mut scenarios = vec![base.clone(), base.clone(), base];
        scenarios[1]
            .set_prob(TupleId(1), BigRational::from_ratio(1, 5))
            .unwrap();
        scenarios[2]
            .set_prob(TupleId(2), BigRational::from_ratio(4, 5))
            .unwrap();
        let probs = engine.evaluate_batch_sharded(&q, &scenarios, 1).unwrap();
        assert_eq!(probs.len(), 3);
        assert_eq!(engine.stats().cache_misses, 1);
        assert_eq!(engine.stats().cache_hits, 2);
        for (p, tid) in probs.iter().zip(&scenarios) {
            assert_eq!(p, &pqe_brute_force(&q, tid).unwrap());
        }
    }

    #[test]
    fn sharded_batch_matches_sequential_and_records_batch_plan() {
        let q = HQuery::new(phi9());
        let base = uniform_tid(complete_database(3, 1), half());
        let scenarios: Vec<_> = (0..7u32)
            .map(|s| {
                let mut tid = base.clone();
                tid.set_prob(TupleId(s % 3), BigRational::from_ratio(1, u64::from(s) + 2))
                    .unwrap();
                tid
            })
            .collect();
        let mut sequential = PqeEngine::new();
        let expected: Vec<_> = scenarios
            .iter()
            .map(|tid| sequential.evaluate(&q, tid).unwrap())
            .collect();
        for shards in [1, 2, 3, 7, 99] {
            let mut engine = PqeEngine::new();
            let planned = engine.plan_batch(&q, &scenarios, shards).unwrap();
            let probs = engine
                .evaluate_batch_sharded(&q, &scenarios, shards)
                .unwrap();
            assert_eq!(probs, expected, "shards={shards}");
            assert_eq!(engine.stats().cache_misses, 1);
            assert_eq!(engine.stats().cache_hits, 6);
            assert_eq!(engine.stats().queries, 7);
            let batch = engine.stats().last_batch.unwrap();
            assert_eq!(batch, planned, "dry run must predict the execution");
            assert_eq!(batch.scenarios, 7);
            assert_eq!(batch.compiles, 1);
            assert_eq!(batch.shared, 6);
            assert!(batch.shards >= 1 && batch.shards <= 7.min(shards.max(1)));
        }
    }

    #[test]
    fn sharded_batch_handles_empty_and_noncacheable_plans() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        assert_eq!(engine.evaluate_batch_sharded(&q, &[], 4).unwrap(), vec![]);
        assert_eq!(engine.stats().queries, 0);

        // Brute-force plans have no artifact; workers fall back to the
        // pure possible-worlds backend.
        let hard = HQuery::new(max_euler_fn(4));
        let tid = uniform_tid(complete_database(3, 1), half());
        let scenarios = vec![tid.clone(), tid];
        let probs = engine.evaluate_batch_sharded(&hard, &scenarios, 2).unwrap();
        assert_eq!(probs[0], pqe_brute_force(&hard, &scenarios[0]).unwrap());
        assert_eq!(
            probs,
            engine.evaluate_batch_sharded(&hard, &scenarios, 1).unwrap()
        );
        assert_eq!(engine.cache_len(), 0);
        assert_eq!(engine.stats().last_batch.unwrap().compiles, 0);
    }

    #[test]
    fn sharded_batch_error_touches_no_state() {
        // Scenario 1 is cacheable (φ9 compiles a d-D) and would have
        // compiled — and, under this budget, evicted — before scenario 2
        // fails, if planning were not strictly up-front. Scenario 2 has
        // the wrong vocabulary (k = 2 against a k = 3 query).
        let q = HQuery::new(phi9());
        let good = uniform_tid(complete_database(3, 1), half());
        let mismatched = uniform_tid(complete_database(2, 2), half());
        let mut engine = PqeEngine::with_config(EngineConfig {
            cache_gate_budget: Some(1), // any compile would also evict
            ..EngineConfig::default()
        });
        let err = engine
            .evaluate_batch_sharded(&q, &[good, mismatched], 2)
            .unwrap_err();
        assert!(matches!(err, EngineError::VocabularyMismatch { .. }));
        // All-or-nothing, observably: no compiles, no evictions, no
        // queries, no batch record.
        assert_eq!(engine.stats().queries, 0);
        assert_eq!(engine.stats().cache_misses, 0);
        assert_eq!(engine.stats().cache_evictions, 0);
        assert_eq!(engine.cache_len(), 0);
        assert!(engine.stats().last_batch.is_none());
    }

    #[test]
    fn cache_budget_bounds_gates_and_counts_evictions() {
        let q = HQuery::new(phi9());
        let small = uniform_tid(complete_database(3, 1), half());
        let large = uniform_tid(complete_database(3, 2), half());

        // Learn the two artifact sizes with an unbounded engine.
        let mut probe = PqeEngine::new();
        probe.evaluate(&q, &small).unwrap();
        probe.evaluate(&q, &large).unwrap();
        let total = probe.cache_gates();
        assert_eq!(probe.cache_len(), 2);

        // A budget below the pair forces the LRU (the `small` artifact)
        // out when `large` arrives.
        let mut engine = PqeEngine::with_config(EngineConfig {
            cache_gate_budget: Some(total - 1),
            ..EngineConfig::default()
        });
        engine.evaluate(&q, &small).unwrap();
        engine.evaluate(&q, &large).unwrap();
        assert!(engine.cache_gates() < total, "budget is a hard bound");
        assert_eq!(engine.stats().cache_evictions, 1);
        // Re-touching the evicted shape recompiles: a second miss.
        engine.evaluate(&q, &small).unwrap();
        assert_eq!(engine.stats().cache_misses, 3);

        // Tightening the budget on a live engine evicts immediately.
        engine.set_cache_budget(Some(0));
        assert_eq!(engine.cache_len(), 0);
        assert_eq!(engine.cache_gates(), 0);
        assert!(engine.stats().cache_evictions >= 2);
        assert_eq!(engine.cache_budget(), Some(0));
    }

    #[test]
    fn lane_batched_f64_matches_scalar_loop_bit_for_bit() {
        let q = HQuery::new(phi9());
        let base = uniform_tid(complete_database(3, 2), half());
        let scenarios: Vec<_> = (0..19u32) // ragged: 2 full blocks + 3
            .map(|s| {
                let mut tid = base.clone();
                tid.set_prob(TupleId(s % 5), BigRational::from_ratio(1, u64::from(s) + 2))
                    .unwrap();
                tid
            })
            .collect();
        let mut scalar = PqeEngine::new();
        let expected: Vec<f64> = scenarios
            .iter()
            .map(|tid| scalar.evaluate_f64(&q, tid).unwrap())
            .collect();
        assert_eq!(scalar.stats().lane_kernel_calls, 0, "scalar path");

        let mut lane = PqeEngine::new();
        let got = lane.evaluate_batch_sharded_f64(&q, &scenarios, 1).unwrap();
        assert_eq!(got, expected, "lane lanes must be bit-identical");
        // One compile, 18 shared walks — and ceil(19 / LANES) kernel calls.
        assert_eq!(lane.stats().cache_misses, 1);
        assert_eq!(lane.stats().cache_hits, 18);
        assert_eq!(lane.stats().queries, 19);
        assert_eq!(lane.stats().lane_kernel_calls, 19u64.div_ceil(LANES as u64));
        // The timing split is populated: compiling happened once, every
        // scenario was a circuit walk.
        assert!(lane.stats().compile_nanos() > 0);
        assert!(lane.stats().walk_nanos > 0);

        // The sharded variant agrees bit-for-bit and counter-for-counter.
        let mut sharded = PqeEngine::new();
        let got = sharded
            .evaluate_batch_sharded_f64(&q, &scenarios, 3)
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(sharded.stats().cache_misses, 1);
        assert_eq!(sharded.stats().cache_hits, 18);
        assert!(
            sharded.stats().lane_kernel_calls >= 3,
            "one per chunk at least"
        );
    }

    #[test]
    fn lane_batched_f64_handles_obdd_artifacts_and_mixed_plans() {
        // Degenerate query → OBDD artifact through the same kernel.
        let deg = HQuery::new(BoolFn::var(4, 0));
        let base = uniform_tid(complete_database(3, 2), half());
        let scenarios: Vec<_> = (0..11u32)
            .map(|s| {
                let mut tid = base.clone();
                tid.set_prob(TupleId(s), BigRational::from_ratio(2, u64::from(s) + 3))
                    .unwrap();
                tid
            })
            .collect();
        let mut scalar = PqeEngine::new();
        let expected: Vec<f64> = scenarios
            .iter()
            .map(|tid| scalar.evaluate_f64(&deg, tid).unwrap())
            .collect();
        let mut lane = PqeEngine::new();
        assert_eq!(
            lane.evaluate_batch_sharded_f64(&deg, &scenarios, 1)
                .unwrap(),
            expected
        );
        assert_eq!(lane.stats().plans(Plan::Obdd), 11);
        assert_eq!(lane.stats().lane_kernel_calls, 2);

        // Brute-force scenarios flow through the scalar fallback,
        // bit-identical to the loop, with zero kernel calls.
        let hard = HQuery::new(max_euler_fn(4));
        let small = uniform_tid(complete_database(3, 1), half());
        let hard_scenarios = vec![small.clone(), small];
        let mut loop_engine = PqeEngine::new();
        let expected: Vec<f64> = hard_scenarios
            .iter()
            .map(|tid| loop_engine.evaluate_f64(&hard, tid).unwrap())
            .collect();
        let mut batch = PqeEngine::new();
        assert_eq!(
            batch
                .evaluate_batch_sharded_f64(&hard, &hard_scenarios, 1)
                .unwrap(),
            expected
        );
        assert_eq!(batch.stats().lane_kernel_calls, 0);
        assert_eq!(batch.stats().plans(Plan::BruteForce), 2);
    }

    #[test]
    fn explain_reports_cache_transitions() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        let tid = uniform_tid(complete_database(3, 1), half());
        assert!(!engine.explain(&q, &tid).cached);
        engine.evaluate(&q, &tid).unwrap();
        let ex = engine.explain(&q, &tid);
        assert!(ex.cached);
        assert_eq!(ex.plan, Ok(Plan::DdCircuit));
        assert_eq!(ex.region, Region::ZeroEulerDD);
    }

    #[test]
    fn live_updates_patch_cached_artifacts() {
        let mut engine = PqeEngine::new();
        let dd_q = HQuery::new(phi9());
        let deg_q = HQuery::new(BoolFn::var(4, 0));
        let mut tid = uniform_tid(complete_database(3, 2), half());
        engine.evaluate(&dd_q, &tid).unwrap();
        engine.evaluate(&deg_q, &tid).unwrap();
        assert_eq!(engine.stats().cache_misses, 2);

        // Remove R(0): both cached artifacts (d-D and OBDD) patch in
        // place and stay resident under the post-update key.
        let (desc, p) = engine.remove_tuple(&mut tid, TupleId(0)).unwrap();
        assert_eq!(desc, TupleDesc::R(0));
        assert_eq!(engine.stats().patches_applied, 2);
        assert_eq!(engine.stats().full_recompiles_avoided, 2);
        assert_eq!(engine.cache_len(), 2);
        for q in [&dd_q, &deg_q] {
            assert!(engine.explain(q, &tid).cached, "patched ⟹ still cached");
            let got = engine.evaluate(q, &tid).unwrap();
            assert_eq!(got, pqe_brute_force(q, &tid).unwrap());
        }
        assert_eq!(engine.stats().cache_misses, 2, "zero recompiles");
        assert_eq!(engine.stats().cache_hits, 2);

        // Insert it back (it takes the next dense id, a *new* shape):
        // patched again, and the patched artifact is byte-identical to a
        // fresh compile of the same shape.
        engine.insert_tuple(&mut tid, desc, p).unwrap();
        assert_eq!(engine.stats().patches_applied, 4);
        let exported = engine.export_artifact(&dd_q, tid.database()).unwrap();
        let mut fresh = PqeEngine::new();
        fresh.evaluate(&dd_q, &tid).unwrap();
        assert_eq!(
            fresh.export_artifact(&dd_q, tid.database()).unwrap(),
            exported,
            "patch ≡ fresh compile, byte for byte"
        );

        // Probability-only change: no structural work at all, but every
        // same-shape artifact counts as a recompile avoided.
        engine
            .set_probability(&mut tid, TupleId(0), BigRational::from_ratio(1, 3))
            .unwrap();
        assert_eq!(engine.stats().patches_applied, 4, "no patches");
        assert_eq!(engine.stats().full_recompiles_avoided, 6);

        // A failed update leaves TID, cache and counters untouched.
        let len = tid.len();
        assert!(engine
            .insert_tuple(&mut tid, TupleDesc::R(99), half())
            .is_err());
        assert_eq!(tid.len(), len);
        assert_eq!(engine.stats().patches_applied, 4);
    }

    #[test]
    fn deltas_ship_updates_between_engines() {
        let q = HQuery::new(phi9());
        let tid = uniform_tid(complete_database(3, 2), half());
        let mut source = PqeEngine::new();
        source.evaluate(&q, &tid).unwrap();
        // A replica that compiled its own copy (patchable trace intact).
        let mut warm = PqeEngine::new();
        warm.evaluate(&q, &tid).unwrap();

        // Export BEFORE the local update — the delta names the shape the
        // replicas still hold.
        let update = TupleUpdate::Remove { id: 0 };
        let delta = source.export_delta(&q, tid.database(), &update).unwrap();
        let mut src_tid = tid.clone();
        source.remove_tuple(&mut src_tid, TupleId(0)).unwrap();
        assert_eq!(source.stats().patches_applied, 1);
        assert_eq!(
            source
                .export_delta(&q, tid.database(), &update)
                .unwrap_err(),
            StoreError::NotCached,
            "post-update the pre-update artifact is gone: export first"
        );

        // Warm replica: applies by incremental patch.
        let report = warm.apply_delta(&delta).unwrap();
        assert_eq!(report.artifacts, 1);
        assert!(report.gates > 0);
        assert_eq!(warm.stats().patches_applied, 1);

        // Cold replica: no resident artifact, falls back to a compile.
        let mut cold = PqeEngine::new();
        cold.apply_delta(&delta).unwrap();
        assert_eq!(cold.stats().patches_applied, 0);
        assert_eq!(cold.cache_len(), 1);

        // All three engines now hold byte-identical post-update artifacts.
        let bytes = source.export_artifact(&q, src_tid.database()).unwrap();
        assert_eq!(warm.export_artifact(&q, src_tid.database()).unwrap(), bytes);
        assert_eq!(cold.export_artifact(&q, src_tid.database()).unwrap(), bytes);

        // Deltas cannot be exported for uncached artifacts, and an
        // operation illegal on the shape is rejected before any state
        // changes.
        assert_eq!(
            PqeEngine::new()
                .export_delta(&q, tid.database(), &update)
                .unwrap_err(),
            StoreError::NotCached
        );
        let mut other = PqeEngine::new();
        other.evaluate(&q, &tid).unwrap();
        let bad = other
            .export_delta(&q, tid.database(), &TupleUpdate::Remove { id: 99 })
            .unwrap();
        assert!(matches!(
            other.apply_delta(&bad).unwrap_err(),
            StoreError::BadTuple(_)
        ));
        assert_eq!(other.stats().patches_applied, 0);
        assert_eq!(other.cache_len(), 1, "failed delta touched nothing");
    }

    #[test]
    fn clear_cache_and_reset_stats() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        let tid = uniform_tid(complete_database(3, 1), half());
        engine.evaluate(&q, &tid).unwrap();
        assert_eq!(engine.cache_len(), 1);
        engine.clear_cache();
        assert_eq!(engine.cache_len(), 0);
        engine.reset_stats();
        assert_eq!(engine.stats().queries, 0);
        // Post-clear evaluation recompiles.
        engine.evaluate(&q, &tid).unwrap();
        assert_eq!(engine.stats().cache_misses, 1);
    }

    // ——— the UCQ front door: parsed general queries ———

    use intext_query::ucq_brute_force;
    use intext_tid::{Database, TupleDesc, Vocabulary};

    /// A k = 1 instance with one S1 slot left open so live-update tests
    /// can insert into it.
    fn k1_tid() -> Tid {
        let mut db = Database::new(1, 2);
        for d in [
            TupleDesc::R(0),
            TupleDesc::R(1),
            TupleDesc::S(1, 0, 0),
            TupleDesc::S(1, 0, 1),
            TupleDesc::S(1, 1, 0),
            TupleDesc::T(0),
            TupleDesc::T(1),
        ] {
            db.insert(d).unwrap();
        }
        uniform_tid(db, half())
    }

    #[test]
    fn safe_parsed_queries_take_the_lifted_route() {
        let mut engine = PqeEngine::new();
        let q = Query::parse("S1(0,y),T(y)", &Vocabulary::h(1)).unwrap();
        let tid = k1_tid();
        assert_eq!(engine.plan(&q, &tid), Ok(Plan::Lifted));
        let ex = engine.explain(&q, &tid);
        assert_eq!(ex.region, Region::SafeLifted);
        assert!(!ex.cached);
        let p = engine.evaluate(&q, &tid).unwrap();
        let (expr, _) = q.general().unwrap();
        assert_eq!(p, ucq_brute_force(expr, &tid).unwrap());
        // Lifted plans produce no artifact and touch no cache.
        assert_eq!(engine.cache_len(), 0);
        assert_eq!(engine.stats().plans(Plan::Lifted), 1);
        assert_eq!(engine.stats().queries, 1);
    }

    #[test]
    fn recognized_h_text_shares_the_h_cache() {
        let mut engine = PqeEngine::new();
        let h = HQuery::new(BoolFn::var(2, 0)); // φ = x₀, i.e. Q = h_{1,0}
        let tid = k1_tid();
        let p1 = engine.evaluate(&h, &tid).unwrap();
        // The same query arriving as text is recognized as H-shaped and
        // served by the artifact the native HQuery already compiled.
        let parsed = Query::parse("R(x), S1(x,y)", &Vocabulary::h(1)).unwrap();
        assert_eq!(engine.plan(&parsed, &tid), Ok(Plan::Obdd));
        let p2 = engine.evaluate(&parsed, &tid).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(engine.cache_len(), 1);
        assert_eq!(engine.stats().cache_misses, 1);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn unsafe_queries_ground_cache_and_match_brute_force() {
        let mut engine = PqeEngine::new();
        // The canonical unsafe CQ: R(x), S1(x,y), T(y) with shared
        // variables across all three atoms.
        let q = Query::parse("R(x),S1(x,y),T(y)", &Vocabulary::h(1)).unwrap();
        let tid = k1_tid();
        assert_eq!(engine.plan(&q, &tid), Ok(Plan::GroundCircuit));
        assert_eq!(engine.explain(&q, &tid).region, Region::GroundCircuit);
        let p1 = engine.evaluate(&q, &tid).unwrap();
        let (expr, _) = q.general().unwrap();
        assert_eq!(p1, ucq_brute_force(expr, &tid).unwrap());
        // The grounded circuit is cached: the second evaluation is a
        // pure re-walk, observable via explain and the hit counters.
        let p2 = engine.evaluate(&q, &tid).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(engine.stats().cache_misses, 1);
        assert_eq!(engine.stats().cache_hits, 1);
        assert!(engine.explain(&q, &tid).cached);
        assert_eq!(engine.stats().plans(Plan::GroundCircuit), 2);
    }

    #[test]
    fn ground_circuits_rewalk_under_reweighting() {
        let mut engine = PqeEngine::new();
        let q = Query::parse("R(x),S1(x,y),T(y)", &Vocabulary::h(1)).unwrap();
        let mut tid = k1_tid();
        let before = engine.evaluate(&q, &tid).unwrap();
        engine
            .set_probability(&mut tid, TupleId(0), BigRational::from_ratio(1, 97))
            .unwrap();
        let after = engine.evaluate(&q, &tid).unwrap();
        assert_ne!(before, after);
        let (expr, _) = q.general().unwrap();
        assert_eq!(after, ucq_brute_force(expr, &tid).unwrap());
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn grounding_budget_is_enforced() {
        let config = EngineConfig {
            max_ground_tuples: 4,
            ..EngineConfig::default()
        };
        let mut engine = PqeEngine::try_with_config(config).unwrap();
        let q = Query::parse("R(x),S1(x,y),T(y)", &Vocabulary::h(1)).unwrap();
        let tid = k1_tid(); // 7 tuples > budget 4
        let expected = EngineError::GroundingTooLarge {
            tuples: 7,
            budget: 4,
        };
        assert_eq!(engine.plan(&q, &tid), Err(expected));
        assert_eq!(engine.evaluate(&q, &tid), Err(expected));
        assert_eq!(engine.stats().queries, 0);
        let shown = expected.to_string();
        assert!(shown.contains('7') && shown.contains('4'), "{shown}");
    }

    #[test]
    fn general_queries_reject_short_vocabularies() {
        let mut engine = PqeEngine::new();
        let q = Query::parse("S2(x,y)", &Vocabulary::h(2)).unwrap();
        let tid = k1_tid(); // k = 1 cannot host an S2 atom
        let expected = EngineError::VocabularyMismatch {
            query_k: 2,
            database_k: 1,
        };
        assert_eq!(engine.plan(&q, &tid), Err(expected));
        assert_eq!(engine.evaluate(&q, &tid), Err(expected));
        // explain still places the query: S2(x,y) alone is safe.
        let ex = engine.explain(&q, &tid);
        assert_eq!(ex.plan, Err(expected));
        assert_eq!(ex.region, Region::SafeLifted);
    }

    #[test]
    fn ground_artifacts_are_not_persisted_or_patched() {
        let mut engine = PqeEngine::new();
        let ground = Query::parse("R(x),S1(x,y),T(y)", &Vocabulary::h(1)).unwrap();
        let h = HQuery::new(BoolFn::var(2, 0));
        let mut tid = k1_tid();
        engine.evaluate(&ground, &tid).unwrap();
        engine.evaluate(&h, &tid).unwrap();
        assert_eq!(engine.cache_len(), 2);
        // Persistence: the bundle carries only the φ-addressed artifact.
        let mut warm = PqeEngine::new();
        let report = warm.load_cache(&engine.save_cache()).unwrap();
        assert_eq!(report.artifacts, 1);
        // Live updates: the H artifact patches across the insert; the
        // ground circuit is skipped (stale shape, never wrong) and
        // recompiles on next use.
        engine
            .insert_tuple(&mut tid, TupleDesc::S(1, 1, 1), half())
            .unwrap();
        assert_eq!(engine.stats().patches_applied, 1);
        let miss_before = engine.stats().cache_misses;
        let p = engine.evaluate(&ground, &tid).unwrap();
        assert_eq!(engine.stats().cache_misses, miss_before + 1);
        let (expr, _) = ground.general().unwrap();
        assert_eq!(p, ucq_brute_force(expr, &tid).unwrap());
    }

    #[test]
    fn config_literals_keep_every_knob_and_validate() {
        let cfg = EngineConfig {
            max_brute_force_tuples: 12,
            cache_gate_budget: Some(1000),
            max_ground_tuples: 10,
            ..EngineConfig::default()
        };
        let engine = PqeEngine::try_with_config(cfg).unwrap();
        assert_eq!(engine.config().max_brute_force_tuples, 12);
        assert_eq!(engine.config().cache_gate_budget, Some(1000));
        assert_eq!(engine.config().max_ground_tuples, 10);
        let bad = EngineConfig {
            sampling: Some(SamplingConfig {
                eps: 0.0,
                ..SamplingConfig::default()
            }),
            ..EngineConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::InvalidEps { eps: 0.0 }));
    }

    #[test]
    fn parsed_queries_flow_through_prepare_and_batches() {
        let mut engine = PqeEngine::new();
        let q = Query::parse("R(x),S1(x,y),T(y)", &Vocabulary::h(1)).unwrap();
        let tid = k1_tid();
        let expected = engine.evaluate(&q, &tid).unwrap();
        // prepare / prepare_batch serve the cached ground circuit.
        let mut stats = EngineStats::default();
        let prepared = engine.prepare(&q, &tid).unwrap();
        assert_eq!(prepared.plan(), Plan::GroundCircuit);
        assert!(prepared.cache_hit());
        assert_eq!(prepared.eval_exact(&tid, 0, &mut stats), expected);
        let one = std::slice::from_ref(&tid);
        let batch = engine.prepare_batch(&q, one).unwrap();
        assert_eq!(
            batch.eval_exact(one, 1, &mut stats),
            std::slice::from_ref(&expected)
        );
        // Batches: one shard, lane-batched f64, and sharded agree.
        let tids = vec![tid.clone(), tid.clone(), tid.clone()];
        let batch = engine.evaluate_batch_sharded(&q, &tids, 1).unwrap();
        assert!(batch.iter().all(|p| *p == expected));
        let plan = engine.plan_batch(&q, &tids, 2).unwrap();
        assert_eq!(plan.compiles, 0);
        assert_eq!(plan.shared, 3);
        let sharded = engine.evaluate_batch_sharded(&q, &tids, 2).unwrap();
        assert_eq!(sharded, batch);
        let f64s = engine.evaluate_batch_sharded_f64(&q, &tids, 1).unwrap();
        let sharded_f64 = engine.evaluate_batch_sharded_f64(&q, &tids, 2).unwrap();
        assert_eq!(f64s, sharded_f64);
    }

    #[test]
    fn lifted_plans_flow_through_batches_and_prepare() {
        let mut engine = PqeEngine::new();
        let q = Query::parse("S1(0,y),T(y)", &Vocabulary::h(1)).unwrap();
        let tid = k1_tid();
        let expected = engine.evaluate(&q, &tid).unwrap();
        // A lifted plan needs no shared state: preparing it builds none.
        let mut stats = EngineStats::default();
        let prepared = engine.prepare(&q, &tid).unwrap();
        assert_eq!(prepared.plan(), Plan::Lifted);
        assert_eq!(prepared.eval_exact(&tid, 0, &mut stats), expected);
        let tids = vec![tid.clone(), tid.clone()];
        let batch = engine.evaluate_batch_sharded(&q, &tids, 1).unwrap();
        assert!(batch.iter().all(|p| *p == expected));
        let sharded = engine.evaluate_batch_sharded(&q, &tids, 2).unwrap();
        assert_eq!(sharded, batch);
        let f64s = engine.evaluate_batch_sharded_f64(&q, &tids, 1).unwrap();
        let sharded_f64 = engine.evaluate_batch_sharded_f64(&q, &tids, 2).unwrap();
        assert_eq!(f64s, sharded_f64);
        assert_eq!(engine.cache_len(), 0);
    }
}
