//! The server: one [`SharedEngine`] behind an [`AdmissionQueue`] and a
//! worker pool, plus the in-process [`ServeHandle`] client.
//!
//! Life of a request: a [`ServeHandle`] submits a [`Request`] with an
//! optional deadline; admission control either queues it (returning a
//! [`PendingResponse`] the client blocks on) or rejects it with typed
//! backpressure ([`ServeError::QueueFull`] /
//! [`ServeError::BudgetExceeded`]) — overload is *always* an error
//! value, never a wrong answer, a panic, or a hang. A worker pops the
//! job, resolves it as [`ServeError::DeadlineExceeded`] if its deadline
//! lapsed in the queue, and otherwise evaluates it as a pure `&self`
//! walk over `Arc`-shared artifacts (see [`SharedEngine`] for the
//! locking contract), recording into a worker-local [`EngineStats`]
//! that is merged into the server totals afterwards. Evaluation runs
//! under `catch_unwind`, so a worker panic costs exactly one request
//! ([`ServeError::WorkerPanicked`]) and nothing else.
//!
//! Determinism contract (pinned by `tests/engine_serve.rs`): every
//! route returns answers **bit-identical** to a sequential
//! [`PqeEngine`] fed the same requests — single queries evaluate at RNG
//! stream 0 like [`PqeEngine::evaluate`], and batches run the engine's
//! own executor ([`PreparedBatch`](intext_engine::PreparedBatch)), so
//! batch scenario `i` evaluates at stream `i` and even the lane-kernel
//! block boundaries line up with
//! [`PqeEngine::evaluate_batch_sharded_f64`].

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use intext_engine::{ConfigError, EngineConfig, EngineStats, Estimate, PqeEngine};
use intext_numeric::BigRational;
use intext_query::Query;
use intext_tid::Tid;

use crate::error::ServeError;
use crate::queue::{AdmissionQueue, Job, JobId, SubmitError};
use crate::shared::SharedEngine;

/// One unit of work a client can submit.
#[derive(Clone, Debug)]
pub enum Request {
    /// Exact `PQE(Q_φ)` on one scenario.
    Evaluate {
        /// The query (an H-query or a parsed UCQ).
        q: Query,
        /// The tuple-independent database.
        tid: Tid,
    },
    /// Floating-point `PQE(Q_φ)` on one scenario.
    EvaluateF64 {
        /// The query (an H-query or a parsed UCQ).
        q: Query,
        /// The tuple-independent database.
        tid: Tid,
    },
    /// `(ε, δ)`-shaped estimate (exact routes come back with
    /// `eps = delta = 0`).
    Estimate {
        /// The query (an H-query or a parsed UCQ).
        q: Query,
        /// The tuple-independent database.
        tid: Tid,
    },
    /// Exact batch: scenario `i` is bit-identical to
    /// [`PqeEngine::evaluate_batch_sharded`]'s element `i` (at any shard
    /// count); served on one shard.
    Batch {
        /// The query (an H-query or a parsed UCQ).
        q: Query,
        /// The probability scenarios, evaluated in order.
        tids: Vec<Tid>,
    },
    /// Sharded f64 batch through the lane kernel, bit-identical to
    /// [`PqeEngine::evaluate_batch_sharded_f64`] at the same `shards`.
    BatchF64 {
        /// The query (an H-query or a parsed UCQ).
        q: Query,
        /// The probability scenarios, evaluated in order.
        tids: Vec<Tid>,
        /// Requested fan-out (clamped like the engine's own sharded
        /// paths).
        shards: usize,
    },
    /// Serialize the artifact cache ([`PqeEngine::save_cache`]) for a
    /// replica warm start.
    Snapshot,
    /// Liveness probe.
    Ping,
}

impl Request {
    /// Scenarios this request will evaluate — what
    /// [`ServeConfig::max_batch_scenarios`] meters.
    pub fn scenarios(&self) -> usize {
        match self {
            Request::Evaluate { .. } | Request::EvaluateF64 { .. } | Request::Estimate { .. } => 1,
            Request::Batch { tids, .. } | Request::BatchF64 { tids, .. } => tids.len(),
            Request::Snapshot | Request::Ping => 0,
        }
    }
}

/// A resolved [`Request`] (the variant always matches the request kind).
#[derive(Clone, Debug)]
pub enum Response {
    /// Answer to [`Request::Evaluate`].
    Exact(BigRational),
    /// Answer to [`Request::EvaluateF64`].
    F64(f64),
    /// Answer to [`Request::Estimate`].
    Estimate(Estimate),
    /// Answer to [`Request::Batch`], one probability per scenario.
    Batch(Vec<BigRational>),
    /// Answer to [`Request::BatchF64`], one probability per scenario.
    BatchF64(Vec<f64>),
    /// Answer to [`Request::Snapshot`]: bytes for
    /// [`PqeEngine::load_cache`] on a replica.
    Snapshot(Vec<u8>),
    /// Answer to [`Request::Ping`].
    Pong,
}

/// Server shape: engine knobs plus the serve layer's own capacity
/// levers.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Planner/cache/sampling configuration for the one shared engine.
    pub engine: EngineConfig,
    /// Worker threads (clamped to ≥ 1). Default: available parallelism.
    pub workers: usize,
    /// Admission queue bound (clamped to ≥ 1); submissions beyond it
    /// are rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Largest batch admitted, in scenarios; bigger requests are
    /// rejected at submit time with [`ServeError::BudgetExceeded`].
    /// `None` admits any size.
    pub max_batch_scenarios: Option<usize>,
    /// Deadline stamped on every request a fresh handle submits
    /// (overridable per handle via [`ServeHandle::with_deadline`]).
    /// `None`: requests wait in the queue indefinitely.
    pub default_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineConfig::default(),
            workers: thread::available_parallelism().map_or(2, usize::from),
            queue_capacity: 128,
            max_batch_scenarios: None,
            default_deadline: None,
        }
    }
}

/// One request's answer or typed rejection.
type Reply = Result<Response, ServeError>;

/// What travels through the admission queue: the request and the one
/// channel its reply goes back on. The job leaves the queue exactly
/// once — through a worker's `pop` or a winning
/// [`PendingResponse::cancel`] — so whoever holds it sends the one
/// reply: the exactly-once half of the serve contract (the
/// bounded-queue half lives in [`AdmissionQueue`]).
struct QueuedJob {
    request: Request,
    reply: SyncSender<Reply>,
}

/// Everything the workers, handles, and transports share.
struct ServerShared {
    engine: SharedEngine,
    queue: AdmissionQueue<QueuedJob>,
    /// Evaluation-side counters (queries, hits, route latencies) from
    /// every finished request, merged worker-locally then folded in
    /// here; [`ServeHandle::stats`] adds the engine's own write-path
    /// counters on top.
    served: Mutex<EngineStats>,
    /// Deterministic fault injection: the next `panic_next` executed
    /// jobs panic inside the worker (under `catch_unwind`), so the
    /// crash tests can exercise the [`ServeError::WorkerPanicked`]
    /// containment path at will. `0` in production.
    panic_next: AtomicU32,
    config: ServeConfig,
}

impl ServerShared {
    fn served(&self) -> MutexGuard<'_, EngineStats> {
        self.served.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims one injected panic, if any are armed, and panics. Runs
    /// inside the worker's `catch_unwind`, so each injection costs
    /// exactly one request.
    fn consume_injected_panic(&self) {
        let mut armed = self.panic_next.load(Ordering::Relaxed);
        while armed > 0 {
            match self.panic_next.compare_exchange(
                armed,
                armed - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => panic!("injected worker panic (fault harness)"),
                Err(current) => armed = current,
            }
        }
    }

    /// Merged totals: engine write-path counters + every worker's
    /// evaluation counters + the lock-poisoning recoveries observed by
    /// the engine lock and the admission queue.
    fn merged_stats(&self) -> EngineStats {
        let mut stats = self.engine.engine_stats();
        stats.merge(&self.served());
        stats.lock_poisonings_recovered +=
            self.engine.lock_poisonings_recovered() + self.queue.lock_poisonings_recovered();
        stats
    }
}

/// The running server: worker pool + shared state. Dropping it (or
/// calling [`shutdown`](Server::shutdown)) closes admission, drains the
/// backlog, and joins every worker.
pub struct Server {
    shared: Arc<ServerShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots a server: validates the engine config, builds the shared
    /// engine, and spawns the worker pool.
    pub fn start(config: ServeConfig) -> Result<Server, ConfigError> {
        let engine = PqeEngine::try_with_config(config.engine)?;
        Ok(Self::start_with_engine(engine, config))
    }

    /// [`start`](Self::start) with a pre-built engine — the warm-start
    /// path: `load_cache` into an engine first, then serve from it.
    pub fn start_with_engine(engine: PqeEngine, config: ServeConfig) -> Server {
        let shared = Arc::new(ServerShared {
            engine: SharedEngine::new(engine),
            queue: AdmissionQueue::new(config.queue_capacity),
            served: Mutex::new(EngineStats::default()),
            panic_next: AtomicU32::new(0),
            config,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("intext-serve-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.queue.pop() {
                            Self::work_one(&shared, job);
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        Server { shared, workers }
    }

    /// An in-process client for this server; clone freely across
    /// threads.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
            deadline: self.shared.config.default_deadline,
        }
    }

    /// Closes admission, drains the backlog (every queued request still
    /// resolves), joins the workers, and returns the final merged
    /// stats.
    pub fn shutdown(mut self) -> EngineStats {
        self.shutdown_inner();
        self.shared.merged_stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside `catch_unwind` (a bug) has
            // already resolved nothing further; surface nothing here —
            // shutdown must complete regardless.
            let _ = worker.join();
        }
    }

    /// One popped job, start to resolution. Panics in evaluation are
    /// contained here: the request resolves as
    /// [`ServeError::WorkerPanicked`] and the worker loop continues.
    fn work_one(shared: &ServerShared, job: Job<QueuedJob>) {
        let QueuedJob { request, reply } = job.payload;
        // A send fails only if the client dropped its `PendingResponse`:
        // nobody is waiting for the answer.
        if let Some(late_by) = job.late_by {
            let _ = reply.send(Err(ServeError::DeadlineExceeded { late_by }));
            return;
        }
        let mut local = EngineStats::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Self::execute(shared, &request, &mut local)
        }))
        .unwrap_or(Err(ServeError::WorkerPanicked));
        // Merge before resolving so a client that observes its answer
        // and immediately reads stats sees its own request counted; a
        // request that failed returned no answer to count.
        if result.is_ok() {
            shared.served().merge(&local);
        }
        let _ = reply.send(result);
    }

    fn execute(
        shared: &ServerShared,
        request: &Request,
        stats: &mut EngineStats,
    ) -> Result<Response, ServeError> {
        shared.consume_injected_panic();
        match request {
            Request::Evaluate { q, tid } => {
                let prepared = shared.engine.prepare(q, tid)?;
                Ok(Response::Exact(prepared.eval_exact(tid, 0, stats)))
            }
            Request::EvaluateF64 { q, tid } => {
                let prepared = shared.engine.prepare(q, tid)?;
                Ok(Response::F64(prepared.eval_f64(tid, 0, stats)))
            }
            Request::Estimate { q, tid } => {
                let prepared = shared.engine.prepare(q, tid)?;
                Ok(Response::Estimate(prepared.eval_estimate(tid, 0, stats)))
            }
            Request::Batch { q, tids } => {
                let batch = shared.engine.prepare_batch(q, tids)?;
                Ok(Response::Batch(batch.eval_exact(tids, 1, stats)))
            }
            Request::BatchF64 { q, tids, shards } => {
                let batch = shared.engine.prepare_batch(q, tids)?;
                Ok(Response::BatchF64(batch.eval_f64(tids, *shards, stats)))
            }
            Request::Snapshot => Ok(Response::Snapshot(shared.engine.save_cache())),
            Request::Ping => Ok(Response::Pong),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// In-process client: submit requests, await answers, read merged
/// stats. Clones share the server; each clone carries its own default
/// deadline.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<ServerShared>,
    deadline: Option<Duration>,
}

impl ServeHandle {
    /// This handle with every subsequent submission deadlined `d` from
    /// its submit instant.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Submits a request through admission control. `Err` here is
    /// *rejection at the door* ([`ServeError::QueueFull`],
    /// [`ServeError::BudgetExceeded`], [`ServeError::Closed`]); an
    /// admitted request resolves through the returned
    /// [`PendingResponse`].
    pub fn submit(&self, request: Request) -> Result<PendingResponse, ServeError> {
        if let Some(budget) = self.shared.config.max_batch_scenarios {
            let scenarios = request.scenarios();
            if scenarios > budget {
                return Err(ServeError::BudgetExceeded { scenarios, budget });
            }
        }
        let (reply, receiver) = mpsc::sync_channel(1);
        let job = QueuedJob { request, reply };
        let deadline = self.deadline.map(|d| Instant::now() + d);
        match self.shared.queue.submit(job, deadline) {
            Ok(id) => Ok(PendingResponse {
                receiver,
                id,
                shared: Arc::clone(&self.shared),
            }),
            Err(SubmitError::QueueFull { capacity }) => Err(ServeError::QueueFull { capacity }),
            Err(SubmitError::Closed) => Err(ServeError::Closed),
        }
    }

    /// Submit + block: one round trip.
    pub fn request(&self, request: Request) -> Result<Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// Exact `PQE(Q)` — bit-identical to [`PqeEngine::evaluate`].
    /// Accepts anything convertible to a [`Query`]: an
    /// [`HQuery`](intext_query::HQuery) by reference, or a parsed UCQ.
    pub fn evaluate(&self, q: impl Into<Query>, tid: &Tid) -> Result<BigRational, ServeError> {
        match self.request(Request::Evaluate {
            q: q.into(),
            tid: tid.clone(),
        })? {
            Response::Exact(p) => Ok(p),
            other => unreachable!("evaluate resolves to an exact response, got {other:?}"),
        }
    }

    /// Floating-point `PQE(Q)` — bit-identical to
    /// [`PqeEngine::evaluate_f64`].
    pub fn evaluate_f64(&self, q: impl Into<Query>, tid: &Tid) -> Result<f64, ServeError> {
        match self.request(Request::EvaluateF64 {
            q: q.into(),
            tid: tid.clone(),
        })? {
            Response::F64(p) => Ok(p),
            other => unreachable!("evaluate_f64 resolves to an f64 response, got {other:?}"),
        }
    }

    /// `(ε, δ)` estimate — bit-identical to [`PqeEngine::estimate`].
    pub fn estimate(&self, q: impl Into<Query>, tid: &Tid) -> Result<Estimate, ServeError> {
        match self.request(Request::Estimate {
            q: q.into(),
            tid: tid.clone(),
        })? {
            Response::Estimate(e) => Ok(e),
            other => unreachable!("estimate resolves to an estimate response, got {other:?}"),
        }
    }

    /// Exact batch — bit-identical to
    /// [`PqeEngine::evaluate_batch_sharded`].
    pub fn evaluate_batch(
        &self,
        q: impl Into<Query>,
        tids: &[Tid],
    ) -> Result<Vec<BigRational>, ServeError> {
        match self.request(Request::Batch {
            q: q.into(),
            tids: tids.to_vec(),
        })? {
            Response::Batch(ps) => Ok(ps),
            other => unreachable!("batch resolves to a batch response, got {other:?}"),
        }
    }

    /// Sharded f64 batch — bit-identical to
    /// [`PqeEngine::evaluate_batch_sharded_f64`].
    pub fn evaluate_batch_f64(
        &self,
        q: impl Into<Query>,
        tids: &[Tid],
        shards: usize,
    ) -> Result<Vec<f64>, ServeError> {
        match self.request(Request::BatchF64 {
            q: q.into(),
            tids: tids.to_vec(),
            shards,
        })? {
            Response::BatchF64(ps) => Ok(ps),
            other => unreachable!("batch_f64 resolves to a batch response, got {other:?}"),
        }
    }

    /// Snapshot of the artifact cache for a replica warm start.
    pub fn snapshot(&self) -> Result<Vec<u8>, ServeError> {
        match self.request(Request::Snapshot)? {
            Response::Snapshot(bytes) => Ok(bytes),
            other => unreachable!("snapshot resolves to snapshot bytes, got {other:?}"),
        }
    }

    /// Liveness round trip through the full queue + worker path.
    pub fn ping(&self) -> Result<(), ServeError> {
        match self.request(Request::Ping)? {
            Response::Pong => Ok(()),
            other => unreachable!("ping resolves to pong, got {other:?}"),
        }
    }

    /// Server totals: the engine's write-path counters (compiles,
    /// evictions) merged with every worker's evaluation
    /// counters, plus the lock-poisoning recoveries
    /// ([`EngineStats::lock_poisonings_recovered`]). For a quiesced
    /// server fed the same requests, the count fields equal a
    /// sequential engine's.
    pub fn stats(&self) -> EngineStats {
        self.shared.merged_stats()
    }

    /// Fault injection for the crash tests: the next `jobs` executed
    /// jobs panic inside their worker. Each injected panic is
    /// contained by `catch_unwind` and resolves its request as
    /// [`ServeError::WorkerPanicked`]; the worker loop, the queue, and
    /// every other request are untouched.
    pub fn inject_worker_panics(&self, jobs: u32) {
        self.shared.panic_next.fetch_add(jobs, Ordering::Relaxed);
    }

    /// The shared engine, for mutation endpoints (live tuple updates,
    /// warm-start loads) and read-only inspection.
    pub fn engine(&self) -> &SharedEngine {
        &self.shared.engine
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// The admission bound.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Largest queue depth ever observed (≤ capacity, always).
    pub fn queue_high_water(&self) -> usize {
        self.shared.queue.high_water()
    }
}

/// A submitted, admitted request: block on [`wait`](Self::wait), or
/// take it back with [`cancel`](Self::cancel).
pub struct PendingResponse {
    receiver: Receiver<Reply>,
    id: JobId,
    shared: Arc<ServerShared>,
}

impl fmt::Debug for PendingResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingResponse")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl PendingResponse {
    /// Blocks until the request resolves (answer, typed rejection, or
    /// — after a [`cancel`](Self::cancel) won the race —
    /// [`ServeError::Cancelled`]).
    pub fn wait(self) -> Result<Response, ServeError> {
        // The sender is dropped unsent only if its holder died outside
        // the worker's `catch_unwind`.
        self.receiver
            .recv()
            .unwrap_or(Err(ServeError::WorkerPanicked))
    }

    /// Tries to take the request back before a worker reaches it.
    /// Returns `true` if the cancel won (the request resolves
    /// [`ServeError::Cancelled`] and no worker will see it); `false`
    /// if a worker already popped it (its real resolution stands —
    /// never both).
    pub fn cancel(&self) -> bool {
        let Some(job) = self.shared.queue.cancel(self.id) else {
            return false;
        };
        let _ = job.reply.send(Err(ServeError::Cancelled));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::phi9;
    use intext_query::HQuery;
    use intext_tid::{complete_database, uniform_tid};

    fn tid3() -> Tid {
        uniform_tid(complete_database(3, 1), BigRational::from_ratio(1, 2))
    }

    #[test]
    fn round_trip_matches_sequential_engine() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let q = HQuery::new(phi9());
        let tid = tid3();
        let expected = PqeEngine::new().evaluate(&q, &tid).unwrap();
        assert_eq!(handle.evaluate(&q, &tid).unwrap(), expected);
        handle.ping().unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn oversized_batches_are_rejected_at_the_door() {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_batch_scenarios: Some(2),
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let q = HQuery::new(phi9());
        let tids = vec![tid3(), tid3(), tid3()];
        let err = handle.evaluate_batch(&q, &tids).unwrap_err();
        assert_eq!(
            err,
            ServeError::BudgetExceeded {
                scenarios: 3,
                budget: 2
            }
        );
        assert!(err.is_backpressure());
        // Nothing was admitted, so nothing was evaluated.
        assert_eq!(server.shutdown().queries, 0);
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let q = Query::from(HQuery::new(phi9()));
        let tid = tid3();
        let pending: Vec<_> = (0..4)
            .map(|_| {
                handle
                    .submit(Request::EvaluateF64 {
                        q: q.clone(),
                        tid: tid.clone(),
                    })
                    .unwrap()
            })
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats.queries, 4, "backlog resolved, not dropped");
        let expected = PqeEngine::new().evaluate_f64(&q, &tid).unwrap();
        for p in pending {
            match p.wait().unwrap() {
                Response::F64(v) => assert_eq!(v.to_bits(), expected.to_bits()),
                other => panic!("expected f64, got {other:?}"),
            }
        }
    }
}
