//! The sharded read-write layer around one [`PqeEngine`].
//!
//! The locking contract (`DESIGN.md` §10): preparing a request — plan
//! its runs, probe the artifact cache, compile a cold artifact — is one
//! exclusive step under the **write** lock ([`PqeEngine::prepare`],
//! [`PqeEngine::prepare_batch`]), and the returned [`PreparedQuery`] /
//! [`PreparedBatch`] is evaluated entirely **outside** any lock, as a
//! pure walk over `Arc`-shared state. Because preparation is exclusive,
//! N racing requests for one cold key cost one compile and N − 1 hits,
//! and every hit refreshes LRU recency as a sequential engine's would:
//! exactly the counters a sequential engine running the same requests
//! reports, which is what lets the differential harness assert stats
//! equality. Live-tuple updates and snapshot loads take the write lock
//! too; snapshots, delta exports and the read-only escape hatch take
//! the read lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use intext_engine::{
    EngineError, EngineStats, LoadReport, PqeEngine, PreparedBatch, PreparedQuery, StoreError,
    TupleUpdate,
};
use intext_numeric::BigRational;
use intext_query::{HQuery, Query};
use intext_tid::{Database, Tid, TidError, TupleDesc, TupleId};

/// One [`PqeEngine`] behind a read-write lock, shared by every worker
/// and every connection of a server. See the module docs for the
/// locking contract.
pub struct SharedEngine {
    inner: RwLock<PqeEngine>,
    /// Times a lock acquisition recovered from poisoning (a holder
    /// panicked). Recovery used to be silent; counting it is what lets
    /// the panic-injection tests assert the containment actually
    /// happened instead of trusting it.
    poisonings: AtomicU64,
}

impl SharedEngine {
    /// Wraps an engine (typically freshly configured, possibly
    /// warm-started via [`PqeEngine::load_cache`] before wrapping).
    pub fn new(engine: PqeEngine) -> Self {
        SharedEngine {
            inner: RwLock::new(engine),
            poisonings: AtomicU64::new(0),
        }
    }

    /// Write-locked [`PqeEngine::prepare`]: plans `(q, tid)`, probes the
    /// cache and compiles when cold, for lock-free evaluation. Accepts
    /// any [`Query`] — an H-query, or a parsed UCQ routed to the lifted
    /// or grounded-circuit backend.
    pub fn prepare(&self, q: &Query, tid: &Tid) -> Result<PreparedQuery, EngineError> {
        self.write().prepare(q, tid)
    }

    /// Write-locked [`PqeEngine::prepare_batch`], held once across all
    /// of the batch's runs.
    pub(crate) fn prepare_batch(
        &self,
        q: &Query,
        tids: &[Tid],
    ) -> Result<PreparedBatch, EngineError> {
        self.write().prepare_batch(q, tids)
    }

    /// Write-locked [`PqeEngine::insert_tuple`]: readers drain first,
    /// in-flight [`PreparedQuery`] walks keep their pre-update
    /// `Arc<Artifact>` (immutable, so still sound for their snapshot of
    /// the instance).
    pub fn insert_tuple(
        &self,
        tid: &mut Tid,
        tuple: TupleDesc,
        p: BigRational,
    ) -> Result<TupleId, TidError> {
        self.write().insert_tuple(tid, tuple, p)
    }

    /// Write-locked [`PqeEngine::remove_tuple`].
    pub fn remove_tuple(
        &self,
        tid: &mut Tid,
        id: TupleId,
    ) -> Result<(TupleDesc, BigRational), TidError> {
        self.write().remove_tuple(tid, id)
    }

    /// Write-locked [`PqeEngine::set_probability`].
    pub fn set_probability(
        &self,
        tid: &mut Tid,
        id: TupleId,
        p: BigRational,
    ) -> Result<(), TidError> {
        self.write().set_probability(tid, id, p)
    }

    /// Read-locked [`PqeEngine::save_cache`] — the snapshot endpoint.
    /// Concurrent evaluations proceed; the snapshot sees a consistent
    /// cache (no torn artifacts: entries are immutable `Arc`s).
    pub fn save_cache(&self) -> Vec<u8> {
        self.read().save_cache()
    }

    /// Write-locked [`PqeEngine::load_cache`] — replica warm start.
    pub fn load_cache(&self, bytes: &[u8]) -> Result<LoadReport, StoreError> {
        self.write().load_cache(bytes)
    }

    /// Read-locked [`PqeEngine::export_delta`]: ships one live update
    /// to replicas without blocking evaluation traffic.
    pub fn export_delta(
        &self,
        q: &HQuery,
        db: &Database,
        update: &TupleUpdate,
    ) -> Result<Vec<u8>, StoreError> {
        self.read().export_delta(q, db, update)
    }

    /// Write-locked [`PqeEngine::apply_delta`].
    pub fn apply_delta(&self, bytes: &[u8]) -> Result<LoadReport, StoreError> {
        self.write().apply_delta(bytes)
    }

    /// A clone of the engine's own stats (compiles, evictions — the
    /// write-path counters). The serve layer merges
    /// worker-local evaluation stats on top; see
    /// [`ServeHandle::stats`](crate::ServeHandle::stats).
    pub fn engine_stats(&self) -> EngineStats {
        self.read().stats().clone()
    }

    /// Read-locked [`PqeEngine::cache_len`].
    pub fn cache_len(&self) -> usize {
        self.read().cache_len()
    }

    /// Read-locked [`PqeEngine::cache_gates`] — the stress tests assert
    /// this stays within budget under concurrent update traffic.
    pub fn cache_gates(&self) -> usize {
        self.read().cache_gates()
    }

    /// Read-locked [`PqeEngine::cache_budget`].
    pub fn cache_budget(&self) -> Option<usize> {
        self.read().cache_budget()
    }

    /// Runs `f` under the read lock — an escape hatch for read-only
    /// engine APIs without a dedicated wrapper (e.g. `explain`).
    pub fn with_engine<R>(&self, f: impl FnOnce(&PqeEngine) -> R) -> R {
        f(&self.read())
    }

    /// Runs `f` under the write lock — the mutation escape hatch
    /// (e.g. [`PqeEngine::reset_stats`], durable checkpoints, fault
    /// injection in the crash tests).
    pub fn with_engine_mut<R>(&self, f: impl FnOnce(&mut PqeEngine) -> R) -> R {
        f(&mut self.write())
    }

    /// How many lock acquisitions recovered from poisoning. Surfaced
    /// as [`EngineStats::lock_poisonings_recovered`] in the serve
    /// layer's merged stats; a quiet server reports `0`.
    pub fn lock_poisonings_recovered(&self) -> u64 {
        self.poisonings.load(Ordering::Relaxed)
    }

    fn read(&self) -> RwLockReadGuard<'_, PqeEngine> {
        // Lock poisoning means a worker panicked mid-call. The engine's
        // own structures are exception-safe (cache inserts are single
        // HashMap operations), so the state is usable; recovering here
        // is what turns a contained panic into one failed request
        // instead of a poisoned — hence deadlocked-looking — server.
        self.inner.read().unwrap_or_else(|poisoned| {
            self.poisonings.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    fn write(&self) -> RwLockWriteGuard<'_, PqeEngine> {
        self.inner.write().unwrap_or_else(|poisoned| {
            self.poisonings.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::phi9;
    use intext_tid::{complete_database, uniform_tid};

    fn half() -> BigRational {
        BigRational::from_ratio(1, 2)
    }

    #[test]
    fn racing_cold_probes_compile_once() {
        let shared = SharedEngine::new(PqeEngine::new());
        let q = HQuery::new(phi9());
        let tid = uniform_tid(complete_database(3, 1), half());
        let mut stats = EngineStats::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = EngineStats::default();
                        let prepared = shared.prepare(&Query::from(&q), &tid).unwrap();
                        let p = prepared.eval_exact(&tid, 0, &mut local);
                        (p, local)
                    })
                })
                .collect();
            let answers: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect();
            for (p, local) in answers {
                assert_eq!(p, answers_reference(&q, &tid));
                stats.merge(&local);
            }
        });
        assert_eq!(stats.queries, 4);
        // Exclusive preparation: exactly one compile no matter the race.
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(shared.cache_len(), 1);
    }

    fn answers_reference(q: &HQuery, tid: &Tid) -> BigRational {
        PqeEngine::new().evaluate(q, tid).unwrap()
    }

    #[test]
    fn poisoned_locks_recover_and_are_counted() {
        let shared = SharedEngine::new(PqeEngine::new());
        assert_eq!(shared.lock_poisonings_recovered(), 0);
        // Panic while holding the write lock: the one way to poison an
        // RwLock (reader panics don't poison it).
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.with_engine_mut(|_| panic!("injected panic under the write lock"));
        }));
        assert!(unwound.is_err());
        // Every subsequent acquisition recovers instead of failing, the
        // engine still answers correctly, and the recoveries are
        // counted rather than silent.
        let q = HQuery::new(phi9());
        let tid = uniform_tid(complete_database(3, 1), half());
        let mut local = EngineStats::default();
        let prepared = shared.prepare(&Query::from(&q), &tid).unwrap();
        assert_eq!(
            prepared.eval_exact(&tid, 0, &mut local),
            answers_reference(&q, &tid)
        );
        assert!(shared.lock_poisonings_recovered() >= 1);
    }
}
