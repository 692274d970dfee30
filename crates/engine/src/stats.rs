//! Engine observability: per-query records and lifetime aggregates.
//!
//! [`EngineStats`] is deliberately **mergeable**: sharded batch
//! evaluation hands each worker its own `EngineStats`, records every
//! scenario locally (no shared counters, no locks on the hot path), and
//! folds the shards back into the engine's aggregate with
//! [`EngineStats::merge`] — so one report covers the whole batch exactly
//! as if it had run sequentially.

use std::fmt;
use std::time::Duration;

use crate::{BatchPlan, Plan, SamplerKind};

/// What happened on one successful `evaluate` call.
#[derive(Clone, Copy, Debug)]
pub struct QueryStats {
    /// The backend the planner chose.
    pub plan: Plan,
    /// Whether the compiled artifact came from the cache (always `false`
    /// for non-cacheable plans).
    pub cache_hit: bool,
    /// Size of the compiled artifact in leaf OBDD nodes, when the
    /// plan is cacheable.
    pub circuit_size: Option<usize>,
    /// Wall time spent compiling (zero on cache hits and on plans that
    /// compile nothing).
    pub compile_time: Duration,
    /// Wall time spent computing the probability.
    pub eval_time: Duration,
    /// Monte-Carlo samples drawn (zero for every exact plan).
    pub samples: u64,
}

/// Aggregate counters over the engine's lifetime (reset with
/// [`PqeEngine::reset_stats`](crate::PqeEngine::reset_stats)).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Successful `evaluate` calls.
    pub queries: u64,
    /// Evaluations served from a cached artifact.
    pub cache_hits: u64,
    /// Evaluations that compiled a fresh artifact (cacheable plan, cold
    /// key). `queries - cache_hits - cache_misses` is the number of
    /// evaluations on non-cacheable plans.
    pub cache_misses: u64,
    /// Artifacts dropped by the LRU cache to satisfy its node budget.
    /// Every eviction that is accessed again costs one extra
    /// `cache_misses` (the recompile), which is how the two counters
    /// reconcile: `cache_misses = distinct cold keys + re-compiles after
    /// eviction`.
    pub cache_evictions: u64,
    /// Artifacts deserialized into the cache by
    /// [`PqeEngine::load_cache`](crate::PqeEngine::load_cache) /
    /// [`PqeEngine::import_artifact`](crate::PqeEngine::import_artifact)
    /// instead of being compiled. A warm-started replica replaying the
    /// saved workload shows `artifact_loads == distinct shapes` and
    /// `cache_misses == 0`: every evaluation re-walks a loaded artifact.
    pub artifact_loads: u64,
    /// Total Monte-Carlo samples drawn across all sampled queries.
    pub samples_drawn: u64,
    /// Nanoseconds spent inside the samplers (the sampling share of
    /// [`eval_time`](Self::eval_time)).
    pub sample_nanos: u64,
    /// Invocations of the lane-batched evaluation kernel: each call
    /// walks one compiled artifact once for a block of up to
    /// `intext_circuits::LANES` scenarios. `queries` per kernel call is
    /// the batching win; zero under purely scalar evaluation.
    pub lane_kernel_calls: u64,
    /// Total wall time spent compiling artifacts.
    pub compile_time: Duration,
    /// Total wall time spent computing probabilities. Under sharded
    /// evaluation this is summed *CPU-side* walk time across workers, so
    /// it can exceed the batch's wall-clock time — that surplus is the
    /// parallelism.
    pub eval_time: Duration,
    /// Nanoseconds spent *walking* compiled artifacts (scalar walks and
    /// lane-kernel calls alike; excludes brute-force, lifted and
    /// sampled evaluation, which walk no cached artifact).
    /// `walk_nanos / queries` falling as
    /// batches grow is the lane kernel's win made observable; its
    /// counterpart [`compile_nanos`](Self::compile_nanos) is derived
    /// from [`compile_time`](Self::compile_time).
    pub walk_nanos: u64,
    /// Artifacts structurally carried across a live tuple update by
    /// incremental patching ([`PqeEngine::insert_tuple`](crate::PqeEngine::insert_tuple)
    /// / [`PqeEngine::remove_tuple`](crate::PqeEngine::remove_tuple))
    /// instead of being recompiled from scratch. Each patch re-unrolls
    /// only the stream prefix up to the changed slot and transplants the
    /// rest — `patches_applied × (recompile − patch)` time is the win.
    pub patches_applied: u64,
    /// Total nanoseconds spent inside artifact patching.
    pub patch_nanos: u64,
    /// Full compilations the live-update path made unnecessary: one per
    /// successful patch, plus one per cached same-shape artifact on a
    /// probability-only update
    /// ([`PqeEngine::set_probability`](crate::PqeEngine::set_probability)),
    /// which touches no structure at all — cache keys exclude
    /// probabilities, so every artifact stays valid as-is.
    pub full_recompiles_avoided: u64,
    /// Delta records replayed from a write-ahead log by
    /// [`PqeEngine::recover`](crate::PqeEngine::recover) — each one an
    /// update the crash would otherwise have lost.
    pub wal_records_applied: u64,
    /// Corrupt durable files (snapshot generations or WAL tails)
    /// renamed aside during [`PqeEngine::recover`](crate::PqeEngine::recover)
    /// instead of being trusted or deleted — the graceful-degradation
    /// path made countable (`DESIGN.md` §12).
    pub recovery_quarantines: u64,
    /// Poisoned locks the serve layer recovered instead of propagating:
    /// a worker panicked while holding the engine rw-lock or an
    /// admission queue mutex, and the next caller took the lock anyway
    /// (the engine's invariants hold under panic — see
    /// `crates/serve/src/shared.rs`). Zero in a healthy server; the
    /// panic-injection test pins the counter's plumbing.
    pub lock_poisonings_recovered: u64,
    /// Per-route latency histograms: one [`LatencyHistogram`] per
    /// [`Plan`] route, fed one sample (`compile_time + eval_time`) per
    /// recorded query — so a route's sample count is the number of
    /// queries routed there ([`plans`](Self::plans)). Merging adds bucket
    /// counts, so a server that folds worker-local stats reports the same
    /// distribution a sequential run of the same requests would.
    pub route_latency: RouteLatency,
    /// The most recent query's record.
    pub last: Option<QueryStats>,
    /// The most recent sharded batch's plan, if any batch ran.
    ///
    /// **Overwrite semantics:** [`merge`](Self::merge) is last-writer-wins
    /// here — `other.last_batch` replaces `self.last_batch` whenever it is
    /// `Some`, and is kept otherwise. Callers merging shards (or server
    /// workers) in submission order therefore end with the batch a
    /// sequential run would have reported last; merging in any other
    /// order makes `last_batch` (and `last`) order-dependent, while every
    /// counter and histogram stays order-independent.
    pub last_batch: Option<BatchPlan>,
}

/// Number of power-of-two buckets in a [`LatencyHistogram`]: bucket 39
/// covers `[2^38, 2^39)` ns ≈ up to nine minutes, far beyond any single
/// query this engine serves.
const LATENCY_BUCKETS: usize = 40;

/// A power-of-two latency histogram: bucket `i` counts samples whose
/// latency in nanoseconds lies in `[2^(i-1), 2^i)` (bucket 0 counts
/// sub-nanosecond samples, the top bucket saturates). Buckets are plain
/// counters, so merging two histograms is bucket-wise addition — the
/// property the serve layer relies on to fold worker-local stats into
/// one server-wide distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Index of the bucket covering `nanos` (saturating at the top).
    fn bucket_index(nanos: u64) -> usize {
        let bits = u64::BITS - nanos.leading_zeros();
        (bits as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_nanos(duration_nanos(latency));
    }

    /// Records one latency sample given in integer nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)] += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw bucket counters; bucket `i` covers `[2^(i-1), 2^i)` ns.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper bound (in nanoseconds, exclusive) of the bucket containing
    /// the `q`-quantile sample, or `None` when the histogram is empty.
    /// `quantile(0.5)` is a p50 upper bound, `quantile(0.99)` a p99
    /// upper bound — coarse (power-of-two resolution) but merge-stable.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(1u64.checked_shl(i as u32).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Bucket-wise addition: afterwards every bucket holds the sum of
    /// both operands' counts, so `count()` adds and quantile bounds are
    /// those of the combined sample set.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }
}

/// One [`LatencyHistogram`] per [`Plan`] route. Total request latency
/// (`compile_time + eval_time`) is recorded under the route the planner
/// chose, so a bounded cache shows up as the cacheable routes' tail
/// (recompiles) and the hard region's cost stays separated from the
/// polynomial engines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteLatency {
    /// Latencies of queries routed to [`Plan::Obdd`].
    pub obdd: LatencyHistogram,
    /// Latencies of queries routed to [`Plan::DdCircuit`].
    pub dd: LatencyHistogram,
    /// Latencies of queries routed to [`Plan::BruteForce`].
    pub brute_force: LatencyHistogram,
    /// Latencies of queries routed to [`Plan::Sample`] (either sampler).
    pub sample: LatencyHistogram,
    /// Latencies of queries routed to [`Plan::Lifted`].
    pub lifted: LatencyHistogram,
    /// Latencies of queries routed to [`Plan::GroundCircuit`].
    pub ground: LatencyHistogram,
}

impl RouteLatency {
    /// The histogram for `plan`'s route.
    pub fn for_plan(&self, plan: Plan) -> &LatencyHistogram {
        match plan {
            Plan::Obdd => &self.obdd,
            Plan::DdCircuit => &self.dd,
            Plan::BruteForce => &self.brute_force,
            Plan::Sample(_) => &self.sample,
            Plan::Lifted => &self.lifted,
            Plan::GroundCircuit => &self.ground,
        }
    }

    fn for_plan_mut(&mut self, plan: Plan) -> &mut LatencyHistogram {
        match plan {
            Plan::Obdd => &mut self.obdd,
            Plan::DdCircuit => &mut self.dd,
            Plan::BruteForce => &mut self.brute_force,
            Plan::Sample(_) => &mut self.sample,
            Plan::Lifted => &mut self.lifted,
            Plan::GroundCircuit => &mut self.ground,
        }
    }

    /// Samples recorded across all routes; equals the recorder's
    /// `queries` counter, which the unit tests pin.
    pub fn total_count(&self) -> u64 {
        self.obdd.count()
            + self.dd.count()
            + self.brute_force.count()
            + self.sample.count()
            + self.lifted.count()
            + self.ground.count()
    }

    /// Route-wise [`LatencyHistogram::merge`] (bucket-wise addition).
    pub fn merge(&mut self, other: &RouteLatency) {
        self.obdd.merge(&other.obdd);
        self.dd.merge(&other.dd);
        self.brute_force.merge(&other.brute_force);
        self.sample.merge(&other.sample);
        self.lifted.merge(&other.lifted);
        self.ground.merge(&other.ground);
    }
}

impl EngineStats {
    /// Folds one query's record into the aggregates. Public because
    /// shard workers build their own `EngineStats` and record into it;
    /// single evaluations go through the engine, which calls this
    /// internally.
    pub fn record(&mut self, q: QueryStats) {
        self.queries += 1;
        if let Plan::Sample(_) = q.plan {
            self.samples_drawn += q.samples;
            self.sample_nanos += duration_nanos(q.eval_time);
        }
        if q.plan.is_cacheable() {
            if q.cache_hit {
                self.cache_hits += 1;
            } else {
                self.cache_misses += 1;
            }
            self.walk_nanos += duration_nanos(q.eval_time);
        }
        self.compile_time += q.compile_time;
        self.eval_time += q.eval_time;
        self.route_latency
            .for_plan_mut(q.plan)
            .record(q.compile_time + q.eval_time);
        self.last = Some(q);
    }

    /// Queries routed to `plan`'s route ([`Plan::Sample`] counts both
    /// samplers), read off that route's latency histogram.
    pub fn plans(&self, plan: Plan) -> u64 {
        self.route_latency.for_plan(plan).count()
    }

    /// [`compile_time`](Self::compile_time) in integer nanoseconds — the
    /// "how much did we pay to build circuits" half of the
    /// compile-vs-walk split the batch paths are optimized around
    /// (derived, so it can never drift out of sync with the duration).
    pub fn compile_nanos(&self) -> u64 {
        duration_nanos(self.compile_time)
    }

    /// Folds another `EngineStats` into this one: counters and durations
    /// add, and `other`'s most-recent records win when present (callers
    /// merge shards in order, so "most recent" stays the last scenario
    /// of the last shard — the same query a sequential run would report).
    ///
    /// `other` is destructured field by field, so a counter added to
    /// the struct does not compile until it is merged here.
    pub fn merge(&mut self, other: &EngineStats) {
        let EngineStats {
            queries,
            cache_hits,
            cache_misses,
            cache_evictions,
            artifact_loads,
            samples_drawn,
            sample_nanos,
            lane_kernel_calls,
            compile_time,
            eval_time,
            walk_nanos,
            patches_applied,
            patch_nanos,
            full_recompiles_avoided,
            wal_records_applied,
            recovery_quarantines,
            lock_poisonings_recovered,
            route_latency,
            last,
            last_batch,
        } = other;
        self.queries += queries;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.cache_evictions += cache_evictions;
        self.artifact_loads += artifact_loads;
        self.samples_drawn += samples_drawn;
        self.sample_nanos += sample_nanos;
        self.lane_kernel_calls += lane_kernel_calls;
        self.compile_time += *compile_time;
        self.eval_time += *eval_time;
        self.walk_nanos += walk_nanos;
        self.patches_applied += patches_applied;
        self.patch_nanos += patch_nanos;
        self.full_recompiles_avoided += full_recompiles_avoided;
        self.wal_records_applied += wal_records_applied;
        self.recovery_quarantines += recovery_quarantines;
        self.lock_poisonings_recovered += lock_poisonings_recovered;
        self.route_latency.merge(route_latency);
        if last.is_some() {
            self.last = *last;
        }
        if last_batch.is_some() {
            self.last_batch = *last_batch;
        }
    }
}

/// A `Duration` as saturating integer nanoseconds (an engine would need
/// to spend ~585 years compiling to overflow the `u64`).
pub(crate) fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries (obdd {}, d-D {}, brute {}, sampled {}, lifted {}, ground {}); \
             cache {} hits / {} misses / {} evictions / {} loads; \
             compile {:?} ({} ns), walk {} ns over {} lane-kernel call(s), \
             eval {:?}; \
             {} sample(s) drawn over {} ns; \
             {} patch(es) over {} ns avoiding {} recompile(s); \
             {} WAL record(s) replayed, {} quarantine(s), {} poisoning(s) recovered",
            self.queries,
            self.plans(Plan::Obdd),
            self.plans(Plan::DdCircuit),
            self.plans(Plan::BruteForce),
            self.plans(Plan::Sample(SamplerKind::KarpLuby)),
            self.plans(Plan::Lifted),
            self.plans(Plan::GroundCircuit),
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.artifact_loads,
            self.compile_time,
            self.compile_nanos(),
            self.walk_nanos,
            self.lane_kernel_calls,
            self.eval_time,
            self.samples_drawn,
            self.sample_nanos,
            self.patches_applied,
            self.patch_nanos,
            self.full_recompiles_avoided,
            self.wal_records_applied,
            self.recovery_quarantines,
            self.lock_poisonings_recovered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::SamplerKind;

    fn q(plan: Plan, cache_hit: bool) -> QueryStats {
        QueryStats {
            plan,
            cache_hit,
            circuit_size: plan.is_cacheable().then_some(10),
            compile_time: Duration::from_micros(5),
            eval_time: Duration::from_micros(1),
            samples: 0,
        }
    }

    #[test]
    fn sample_plans_thread_counts_and_time() {
        let mut s = EngineStats::default();
        s.record(QueryStats {
            samples: 1234,
            ..q(Plan::Sample(SamplerKind::KarpLuby), false)
        });
        assert_eq!(s.plans(Plan::Sample(SamplerKind::KarpLuby)), 1);
        assert_eq!(s.samples_drawn, 1234);
        assert_eq!(s.sample_nanos, 1_000, "the sampler's eval_time share");
        // Sampled queries are neither cache traffic nor circuit walks.
        assert_eq!(s.cache_hits + s.cache_misses, 0);
        assert_eq!(s.walk_nanos, 0);
        let mut merged = EngineStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.samples_drawn, 2468);
        assert_eq!(merged.plans(Plan::Sample(SamplerKind::NaiveWorlds)), 2);
        assert!(merged.to_string().contains("2468 sample(s)"), "{merged}");
    }

    #[test]
    fn record_aggregates_per_plan_and_cache() {
        let mut s = EngineStats::default();
        s.record(q(Plan::DdCircuit, false));
        s.record(q(Plan::DdCircuit, true));
        s.record(q(Plan::Obdd, false));
        s.record(q(Plan::BruteForce, false));
        assert_eq!(s.queries, 4);
        assert_eq!(s.plans(Plan::DdCircuit), 2);
        assert_eq!(s.plans(Plan::Obdd), 1);
        assert_eq!(s.plans(Plan::BruteForce), 1);
        assert_eq!(s.cache_hits, 1);
        // The brute-force query counts as neither hit nor miss.
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.compile_time, Duration::from_micros(20));
        assert_eq!(s.compile_nanos(), 20_000, "the nanos mirror compile_time");
        // Only the three cacheable-plan evaluations are circuit walks.
        assert_eq!(s.walk_nanos, 3_000);
        assert!(matches!(
            s.last,
            Some(QueryStats {
                cache_hit: false,
                ..
            })
        ));
        let shown = s.to_string();
        assert!(shown.contains("4 queries"), "{shown}");
        assert!(shown.contains("evictions"), "{shown}");
    }

    #[test]
    fn merge_is_addition_on_counters_and_last_writer_wins_on_records() {
        let mut a = EngineStats::default();
        a.record(q(Plan::DdCircuit, false));
        a.cache_evictions = 2;
        a.lane_kernel_calls = 3;
        let mut b = EngineStats::default();
        b.record(q(Plan::Obdd, true));
        b.record(q(Plan::Lifted, false));
        b.cache_evictions = 1;
        b.lane_kernel_calls = 4;
        a.patches_applied = 2;
        a.patch_nanos = 500;
        a.full_recompiles_avoided = 5;
        b.patches_applied = 1;
        b.patch_nanos = 250;
        b.full_recompiles_avoided = 1;

        let mut merged = EngineStats::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.queries, 3);
        assert_eq!(merged.plans(Plan::DdCircuit), 1);
        assert_eq!(merged.plans(Plan::Obdd), 1);
        assert_eq!(merged.plans(Plan::Lifted), 1);
        assert_eq!(merged.cache_hits, 1);
        assert_eq!(merged.cache_misses, 1);
        assert_eq!(merged.cache_evictions, 3);
        assert_eq!(merged.compile_time, Duration::from_micros(15));
        assert_eq!(merged.eval_time, Duration::from_micros(3));
        assert_eq!(merged.compile_nanos(), 15_000);
        assert_eq!(merged.walk_nanos, 2_000, "the two cacheable walks");
        assert_eq!(merged.lane_kernel_calls, 7);
        assert_eq!(merged.patches_applied, 3);
        assert_eq!(merged.patch_nanos, 750);
        assert_eq!(merged.full_recompiles_avoided, 6);
        assert!(
            merged
                .to_string()
                .contains("3 patch(es) over 750 ns avoiding 6 recompile(s)"),
            "{merged}"
        );
        // b recorded last; its final record is the merged `last`.
        assert!(matches!(
            merged.last,
            Some(QueryStats {
                plan: Plan::Lifted,
                ..
            })
        ));
        // Merging an empty stats object changes nothing.
        let snapshot = merged.queries;
        merged.merge(&EngineStats::default());
        assert_eq!(merged.queries, snapshot);
        assert!(merged.last.is_some());
    }

    #[test]
    fn general_routes_have_their_own_counters_and_histograms() {
        let mut s = EngineStats::default();
        s.record(q(Plan::Lifted, false));
        s.record(q(Plan::GroundCircuit, false));
        s.record(q(Plan::GroundCircuit, true));
        assert_eq!(s.plans(Plan::Lifted), 1);
        assert_eq!(s.plans(Plan::GroundCircuit), 2);
        // Ground circuits are cacheable artifacts; lifted runs are not.
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.route_latency.lifted.count(), 1);
        assert_eq!(s.route_latency.ground.count(), 2);
        assert_eq!(s.route_latency.total_count(), s.queries);
        let mut merged = EngineStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.plans(Plan::Lifted), 2);
        assert_eq!(merged.plans(Plan::GroundCircuit), 4);
        assert_eq!(merged.route_latency.total_count(), merged.queries);
        assert!(
            merged.to_string().contains("lifted 2, ground 4"),
            "{merged}"
        );
    }

    #[test]
    fn latency_buckets_cover_powers_of_two() {
        let mut h = LatencyHistogram::default();
        h.record_nanos(0); // bucket 0
        h.record_nanos(1); // [1, 2) → bucket 1
        h.record_nanos(2); // [2, 4) → bucket 2
        h.record_nanos(3); // [2, 4) → bucket 2
        h.record_nanos(1_023); // [512, 1024) → bucket 10
        h.record_nanos(u64::MAX); // saturates into the top bucket
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[LATENCY_BUCKETS - 1], 1);
        // Quantile upper bounds are bucket upper bounds.
        assert_eq!(h.quantile(0.5), Some(4), "p50 lands in the [2,4) bucket");
        assert_eq!(LatencyHistogram::default().quantile(0.5), None);
    }

    #[test]
    fn record_feeds_the_plans_route_histogram() {
        let mut s = EngineStats::default();
        s.record(q(Plan::DdCircuit, false));
        s.record(q(Plan::DdCircuit, true));
        s.record(q(Plan::BruteForce, false));
        s.record(QueryStats {
            samples: 7,
            ..q(Plan::Sample(SamplerKind::NaiveWorlds), false)
        });
        assert_eq!(s.route_latency.dd.count(), 2);
        assert_eq!(s.route_latency.brute_force.count(), 1);
        assert_eq!(s.route_latency.sample.count(), 1);
        assert_eq!(s.route_latency.obdd.count(), 0);
        // One sample per recorded query, no more, no less.
        assert_eq!(s.route_latency.total_count(), s.queries);
        // The sample is compile + eval: 5 µs + 1 µs = 6000 ns → [4096, 8192).
        assert_eq!(s.route_latency.dd.buckets()[13], 2);
    }

    #[test]
    fn histograms_merge_additively_bucket_by_bucket() {
        let mut a = EngineStats::default();
        a.record(q(Plan::Obdd, false));
        a.record(q(Plan::Lifted, false));
        let mut b = EngineStats::default();
        b.record(q(Plan::Obdd, true));
        b.record(QueryStats {
            eval_time: Duration::from_millis(3),
            ..q(Plan::Obdd, true)
        });

        let mut merged = EngineStats::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.route_latency.obdd.count(), 3);
        assert_eq!(merged.route_latency.lifted.count(), 1);
        assert_eq!(merged.route_latency.total_count(), merged.queries);
        // Bucket-wise: the two 6 µs obdd walks sit together, the 3 ms
        // outlier alone, regardless of merge grouping.
        let mut expected = LatencyHistogram::default();
        expected.record_nanos(6_000);
        expected.record_nanos(6_000);
        expected.record_nanos(3_005_000);
        assert_eq!(merged.route_latency.obdd, expected);
        // Merge order cannot change any histogram (pure addition).
        let mut reversed = EngineStats::default();
        reversed.merge(&b);
        reversed.merge(&a);
        assert_eq!(reversed.route_latency, merged.route_latency);
    }
}
