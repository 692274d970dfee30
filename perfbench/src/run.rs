//! Fixtures, set-up, and the closed-loop clients that drive a workload
//! through an in-process `intext-serve` over a Unix socket.
//!
//! The untraced run uses the server exactly as shipped:
//! `Server::start_with_engine` + `listen_unix`, with `RemoteClient`s.
//! The traced run replays the same ops but rebuilds each one from the
//! layers' public calls: the client thread encodes and frames the
//! request, and a benchmark-owned thread per connection reads, decodes,
//! prepares, evaluates and replies, with a span around every call.

use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use intext_engine::{
    DurableDir, EngineConfig, EngineStats, LaneScratch, Plan, PqeEngine, RecoveryReport,
    SnapshotSource, SNAPSHOT_FILE, WAL_FILE,
};
use intext_numeric::BigRational;
use intext_query::{HQuery, Query};
use intext_serve::{
    listen_unix, net, wire, ListenerHandle, RemoteClient, Request, Response, ServeConfig,
    ServeError, ServeHandle, Server, SharedEngine,
};
use intext_tid::Tid;

use crate::rng::Rng;
use crate::trace::{op_id, CountingIo, Rec, Span, NO_OP};
use crate::workload::{
    scenario, Action, Class, KeyKind, KeySet, Op, Stream, Update, Workload, WORKERS,
};

/// A fresh per-run state directory inside the checkout (on its disk
/// filesystem, never tmpfs), removed when the run ends.
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    pub fn create(base: &Path, workload: Workload, tag: &str) -> Result<RunDir, String> {
        let root = base.join(format!("{}-{}-{tag}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(RunDir { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    pub fn durable(&self) -> PathBuf {
        self.root.join("durable")
    }

    /// Relative to the working directory, so the socket path stays far
    /// below the 108-byte `sun_path` limit wherever the checkout lives.
    pub fn socket(&self, n: usize) -> PathBuf {
        self.root.join(format!("s{n}.sock"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Everything one run of one workload shares.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub keys: KeySet,
    pub config: EngineConfig,
    pub io: Arc<CountingIo>,
    pub dir: RunDir,
    /// durable-write: the WAL tail the set-up replays, and the live
    /// instance after it.
    pub tail: Vec<Update>,
    pub live: Option<Tid>,
    /// Artifacts the fixture snapshot holds.
    pub snapshot_artifacts: u64,
    pub epoch: Instant,
    set_ups: usize,
}

/// The answer an op returned, kept for the correctness gate.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    F64(u64),
    Exact(BigRational),
    Batch(Vec<u64>),
    Done,
}

impl Answer {
    fn of(resp: Response) -> Result<Answer, String> {
        match resp {
            Response::F64(p) => Ok(Answer::F64(p.to_bits())),
            Response::Exact(p) => Ok(Answer::Exact(p)),
            Response::BatchF64(ps) => Ok(Answer::Batch(ps.iter().map(|p| p.to_bits()).collect())),
            other => Err(format!("unexpected response {other:?}")),
        }
    }
}

/// What the server-side traced thread learned about one op.
#[derive(Clone, Copy, Debug)]
pub struct OpInfo {
    pub op: u64,
    pub request_bytes: usize,
    pub plan: Plan,
    /// The preparation compiled (a cache miss on a cacheable plan).
    pub compiled: bool,
    pub compile_nanos: u64,
    pub scenarios: usize,
    pub lane_calls: u64,
    /// An exact (`BigRational`) request.
    pub exact: bool,
}

/// The storage work of one durable write.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteIo {
    pub syncs: u64,
    pub appended: u64,
    pub records: u64,
}

impl Ctx {
    pub fn new(workload: Workload, seed: u64, base: &Path, tag: &str) -> Result<Ctx, String> {
        let keys = KeySet::new(workload, seed);
        Ok(Ctx {
            workload,
            seed,
            keys,
            config: EngineConfig::default(),
            io: Arc::new(CountingIo::default()),
            dir: RunDir::create(base, workload, tag)?,
            tail: Vec::new(),
            live: None,
            snapshot_artifacts: 0,
            epoch: Instant::now(),
            set_ups: 0,
        })
    }

    /// The op stream of connection `c`; durable-write's starts where the
    /// fixture's WAL tail ended.
    pub fn stream(&self, c: usize) -> Stream<'_> {
        match self.workload {
            Workload::DurableWrite => Stream::after_tail(&self.keys, self.seed).0,
            _ => Stream::new(&self.keys, self.seed, c),
        }
    }

    pub fn durable_dir(&self) -> Result<DurableDir, String> {
        DurableDir::open_with(self.dir.durable(), self.io.clone())
            .map_err(|e| format!("open durable dir: {e}"))
    }

    /// Builds what the set-up starts from (untimed): the hot set's
    /// snapshot (hot-read), the cache budget (compile-churn), or a
    /// snapshot plus a WAL tail (durable-write).
    pub fn build_fixture(&mut self) -> Result<(), String> {
        match self.workload {
            Workload::HotRead => {
                let mut engine = PqeEngine::with_config(self.config);
                let mut rng = Rng::new(self.seed, 7);
                for key in self.keys.reads.iter().chain(&self.keys.focus) {
                    let tid = key.scenario(&mut rng);
                    let plan = engine
                        .plan(key.query.clone(), &tid)
                        .map_err(|e| format!("plan: {e}"))?;
                    let want = match key.kind {
                        KeyKind::Dd => Plan::DdCircuit,
                        KeyKind::Obdd => Plan::Obdd,
                        KeyKind::Lifted => Plan::Lifted,
                        KeyKind::Ground => Plan::GroundCircuit,
                    };
                    if plan != want {
                        return Err(format!("{} routes to {plan}, not {want}", key.query));
                    }
                    engine
                        .prepare(key.query.clone(), &tid)
                        .map_err(|e| format!("compile hot set: {e}"))?;
                }
                self.snapshot_artifacts = engine.cache_len() as u64;
                self.durable_dir()?
                    .checkpoint(&engine)
                    .map_err(|e| format!("checkpoint: {e}"))?;
            }
            Workload::CompileChurn => {
                let mut engine = PqeEngine::with_config(self.config);
                let mut rng = Rng::new(self.seed, 7);
                let mut cold_gates = 0;
                for key in &self.keys.focus {
                    let tid = key.scenario(&mut rng);
                    let prepared = engine
                        .prepare(key.query.clone(), &tid)
                        .map_err(|e| format!("size cold set: {e}"))?;
                    cold_gates += prepared.circuit_size().unwrap_or(0);
                }
                // Half the cold working set: round-robin access then
                // misses on every cold request (as in E19).
                self.config.cache_gate_budget = Some(cold_gates / 2);
            }
            Workload::DurableWrite => {
                let mut tid = self.keys.instance.clone().expect("durable-write instance");
                let engine = SharedEngine::new(PqeEngine::with_config(self.config));
                for q in &self.keys.durable {
                    engine
                        .prepare(&Query::from(q), &tid)
                        .map_err(|e| format!("compile durable set: {e}"))?;
                }
                self.snapshot_artifacts = engine.cache_len() as u64;
                let ddir = self.durable_dir()?;
                engine
                    .with_engine(|e| ddir.checkpoint(e))
                    .map_err(|e| format!("checkpoint: {e}"))?;
                let (_, tail) = Stream::after_tail(&self.keys, self.seed);
                let mut rec = Rec::off(self.epoch);
                for update in &tail {
                    durable_write(
                        &engine,
                        &ddir,
                        &self.keys.durable,
                        &mut tid,
                        update,
                        &mut rec,
                        NO_OP,
                    )?;
                }
                self.tail = tail;
                self.live = Some(tid);
            }
        }
        Ok(())
    }

    /// The set-up's warm reads: one per hot key.
    fn hot_requests(&self) -> Vec<Request> {
        let mut rng = Rng::new(self.seed, 8);
        match self.workload {
            Workload::HotRead | Workload::CompileChurn => {
                let focus: &[_] = if self.workload == Workload::HotRead {
                    &self.keys.focus
                } else {
                    &[]
                };
                self.keys
                    .reads
                    .iter()
                    .chain(focus)
                    .map(|key| Request::EvaluateF64 {
                        q: key.query.clone(),
                        tid: key.scenario(&mut rng),
                    })
                    .collect()
            }
            Workload::DurableWrite => {
                let live = self.live.as_ref().expect("fixture built");
                self.keys
                    .durable
                    .iter()
                    .map(|q| Request::EvaluateF64 {
                        q: Query::from(q.clone()),
                        tid: scenario(live.database(), &mut rng),
                    })
                    .collect()
            }
        }
    }

    /// One set-up, timed: engine construction or recovery → server and
    /// listener up → one answered read per hot key.
    pub fn set_up(&mut self, traced: bool) -> Result<Live, String> {
        self.set_ups += 1;
        let socket = self.dir.socket(self.set_ups);
        let mut rec = if traced {
            Rec::on(self.epoch)
        } else {
            Rec::off(self.epoch)
        };
        let hot = self.hot_requests();
        let started = Instant::now();
        let Start {
            engine,
            recovery,
            ddir,
            snapshot_bytes,
        } = self.engine(&mut rec)?;
        let server = Server::start_with_engine(
            engine,
            ServeConfig {
                engine: self.config,
                workers: WORKERS,
                ..ServeConfig::default()
            },
        );
        let n = self.workload.connections();
        let (listener, accept) = if traced {
            let listener = UnixListener::bind(&socket)
                .map_err(|e| format!("bind {}: {e}", socket.display()))?;
            let handle = server.handle();
            let epoch = self.epoch;
            let accept = thread::spawn(move || {
                (0..n)
                    .filter_map(|_| listener.accept().ok())
                    .map(|(stream, _)| {
                        let handle = handle.clone();
                        thread::spawn(move || serve_traced(handle, stream, epoch))
                    })
                    .collect::<Vec<_>>()
            });
            (None, Some(accept))
        } else {
            let listener = listen_unix(server.handle(), &socket)
                .map_err(|e| format!("listen {}: {e}", socket.display()))?;
            (Some(listener), None)
        };
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = UnixStream::connect(&socket).map_err(|e| format!("connect: {e}"))?;
            conns.push(if traced {
                Conn::Traced(stream)
            } else {
                Conn::Remote(RemoteClient::new(stream))
            });
        }
        let server_threads = match accept {
            Some(accept) => accept.join().map_err(|_| "accept thread panicked")?,
            None => Vec::new(),
        };
        for (i, req) in hot.iter().enumerate() {
            request(
                &mut conns[0],
                op_id(SETUP_CONN, i as u64),
                req,
                &mut Rec::off(self.epoch),
            )
            .map_err(|e| format!("set-up read: {e}"))?;
        }
        let took = started.elapsed();
        Ok(Live {
            handle: server.handle(),
            server,
            listener,
            server_threads,
            conns,
            ddir,
            tid: self.live.clone(),
            recovery,
            snapshot_bytes,
            setup: took,
            setup_spans: rec.take(),
        })
    }

    /// The engine a set-up starts from. Untraced: `PqeEngine::recover`.
    /// Traced: the same recovery rebuilt from its public steps, so load
    /// and replay can be timed apart.
    fn engine(&self, rec: &mut Rec) -> Result<Start, String> {
        if self.workload == Workload::CompileChurn {
            return Ok(Start {
                engine: PqeEngine::with_config(self.config),
                recovery: None,
                ddir: None,
                snapshot_bytes: 0,
            });
        }
        let ddir = self.durable_dir()?;
        if !rec.active() {
            let (engine, report) =
                PqeEngine::recover_with(self.config, &ddir).map_err(|e| format!("recover: {e}"))?;
            return Ok(Start {
                engine,
                recovery: Some(report),
                ddir: Some(ddir),
                snapshot_bytes: 0,
            });
        }
        let mut engine = PqeEngine::with_config(self.config);
        let bytes = std::fs::read(self.dir.durable().join(SNAPSHOT_FILE))
            .map_err(|e| format!("read snapshot: {e}"))?;
        let load = rec
            .time("store.load_cache", "setup", NO_OP, || {
                engine.load_cache(&bytes)
            })
            .map_err(|e| format!("load snapshot: {e}"))?;
        let wal = intext_engine::Wal::with_io(self.dir.durable().join(WAL_FILE), self.io.clone());
        let replay_start = rec.now();
        let replay = wal.replay().map_err(|e| format!("wal replay: {e}"))?;
        let mut report = RecoveryReport {
            snapshot: SnapshotSource::Current {
                artifacts: load.artifacts as u64,
            },
            ..RecoveryReport::default()
        };
        for record in &replay.records {
            rec.time("store.apply_delta", "setup", NO_OP, || {
                engine.apply_delta(&record.payload)
            })
            .map_err(|e| format!("apply delta: {e}"))?;
            report.wal_records_applied += 1;
        }
        let replay_end = rec.now();
        rec.push("wal.replay", "setup", NO_OP, replay_start, replay_end);
        Ok(Start {
            engine,
            recovery: Some(report),
            ddir: Some(ddir),
            snapshot_bytes: bytes.len(),
        })
    }
}

/// What a set-up starts serving from.
struct Start {
    engine: PqeEngine,
    recovery: Option<RecoveryReport>,
    ddir: Option<DurableDir>,
    /// Snapshot size, traced set-ups only.
    snapshot_bytes: usize,
}

/// Connection id of the set-up's warm reads.
pub const SETUP_CONN: usize = 255;

/// The transport of one client connection.
pub enum Conn {
    /// The shipped client, against `listen_unix`.
    Remote(RemoteClient<UnixStream>),
    /// Hand-framed requests against a benchmark-owned server thread.
    Traced(UnixStream),
}

/// One round trip; `Err` carries a typed serve error or a transport
/// failure, rendered.
fn request(conn: &mut Conn, id: u64, req: &Request, rec: &mut Rec) -> Result<Response, String> {
    match conn {
        Conn::Remote(client) => match client.request(req) {
            Ok(Ok(resp)) => Ok(resp),
            Ok(Err(e)) => Err(format!("serve error: {e}")),
            Err(e) => Err(format!("client error: {e}")),
        },
        Conn::Traced(stream) => {
            let frame = rec.time("wire.encode_request", "op", id, || {
                wire::encode_request(id, req)
            });
            rec.time("net.client_write", "op", id, || {
                net::write_frame(stream, &frame)
            })
            .map_err(|e| format!("write frame: {e}"))?;
            let payload = rec
                .time("net.client_read", "op", id, || net::read_frame(stream))
                .map_err(|e| format!("read frame: {e}"))?
                .ok_or("server hung up")?;
            let (reply_id, reply) = rec
                .time("wire.decode_reply", "op", id, || {
                    wire::decode_reply(&payload)
                })
                .map_err(|e| format!("decode reply: {e}"))?;
            if reply_id != id {
                return Err(format!("reply id {reply_id} for request {id}"));
            }
            reply.map_err(|e| format!("serve error: {e}"))
        }
    }
}

/// What a benchmark-owned server thread recorded.
#[derive(Default)]
pub struct ServerLog {
    pub spans: Vec<Span>,
    pub infos: Vec<OpInfo>,
}

/// The traced server side of one connection: `listen_unix`'s loop
/// rebuilt from public calls, with the admission queue left out (its
/// cost is priced separately by `ServeHandle::ping`).
fn serve_traced(handle: ServeHandle, mut stream: UnixStream, epoch: Instant) -> ServerLog {
    let mut rec = Rec::on(epoch);
    let mut log = ServerLog::default();
    while let Ok(Some(payload)) = net::read_frame(&mut stream) {
        let t = rec.now();
        let decoded = wire::decode_request(&payload);
        let Ok((id, req)) = decoded else { break };
        rec.push("wire.decode_request", "op", id, t, rec.now());
        let mut info = OpInfo {
            op: id,
            request_bytes: payload.len(),
            plan: Plan::BruteForce,
            compiled: false,
            compile_nanos: 0,
            scenarios: req.scenarios(),
            lane_calls: 0,
            exact: matches!(req, Request::Evaluate { .. }),
        };
        let result = execute_traced(handle.engine(), &req, id, &mut rec, &mut info);
        let bytes = rec.time("wire.encode_response", "op", id, || match &result {
            Ok(resp) => wire::encode_response(id, resp),
            Err(e) => wire::encode_error(id, e),
        });
        let t = rec.now();
        if net::write_frame(&mut stream, &bytes).is_err() {
            break;
        }
        rec.push("net.server_write", "op", id, t, rec.now());
        log.infos.push(info);
    }
    log.spans = rec.take();
    log
}

fn execute_traced(
    engine: &SharedEngine,
    req: &Request,
    id: u64,
    rec: &mut Rec,
    info: &mut OpInfo,
) -> Result<Response, ServeError> {
    let mut stats = EngineStats::default();
    let (q, tid) = match req {
        Request::Evaluate { q, tid } | Request::EvaluateF64 { q, tid } => (q, tid),
        Request::BatchF64 { q, tids, .. } => (q, &tids[0]),
        _ => return Err(ServeError::Closed),
    };
    let prepared = rec
        .time("shared.prepare", "op", id, || engine.prepare(q, tid))
        .map_err(ServeError::Engine)?;
    info.plan = prepared.plan();
    info.compiled = prepared.plan().is_cacheable() && !prepared.cache_hit();
    let resp = match req {
        Request::Evaluate { tid, .. } => {
            Response::Exact(rec.time("eval", "op", id, || prepared.eval_exact(tid, 0, &mut stats)))
        }
        Request::EvaluateF64 { tid, .. } => {
            Response::F64(rec.time("eval", "op", id, || prepared.eval_f64(tid, 0, &mut stats)))
        }
        Request::BatchF64 { tids, shards, .. } => {
            // The server's chunk math: `shards` chunks of one
            // same-shape run, each walked through the lane kernel on
            // its own thread.
            let n = tids.len();
            let shards = n.div_ceil(n.div_ceil((*shards).clamp(1, n)));
            let chunk = n.div_ceil(shards);
            let prepared = &prepared;
            let parts: Vec<(Vec<f64>, EngineStats)> = rec.time("eval", "op", id, || {
                thread::scope(|scope| {
                    let handles: Vec<_> = (0..n)
                        .step_by(chunk)
                        .map(|base| {
                            scope.spawn(move || {
                                let end = (base + chunk).min(n);
                                let mut local = EngineStats::default();
                                let mut scratch = LaneScratch::new();
                                let mut out = Vec::with_capacity(end - base);
                                prepared.eval_run_f64(
                                    &tids[base..end],
                                    base as u64,
                                    &mut scratch,
                                    &mut out,
                                    &mut local,
                                );
                                (out, local)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("lane chunk panicked"))
                        .collect()
                })
            });
            let mut out = Vec::with_capacity(n);
            for (part, local) in parts {
                out.extend(part);
                stats.merge(&local);
            }
            Response::BatchF64(out)
        }
        _ => unreachable!("matched above"),
    };
    info.compile_nanos = stats.compile_time.as_nanos() as u64;
    info.lane_calls = stats.lane_kernel_calls;
    Ok(resp)
}

/// One durable structural update, composed as `intext-serve --demo
/// --wal` composes it: export a delta per cached query, log each
/// (append + fsync) before the update applies, then apply it (which
/// patches every cached artifact).
pub fn durable_write(
    engine: &SharedEngine,
    ddir: &DurableDir,
    durable: &[HQuery],
    tid: &mut Tid,
    update: &Update,
    rec: &mut Rec,
    id: u64,
) -> Result<(), String> {
    let delta = update.delta();
    let mut deltas = Vec::with_capacity(durable.len());
    for q in durable {
        deltas.push(
            rec.time("store.export_delta", "op", id, || {
                engine.export_delta(q, tid.database(), &delta)
            })
            .map_err(|e| format!("export_delta: {e}"))?,
        );
    }
    for d in &deltas {
        rec.time("wal.log_delta", "op", id, || ddir.log_delta(d))
            .map_err(|e| format!("log_delta: {e}"))?;
    }
    rec.time("engine.patch", "op", id, || match update {
        Update::Insert(desc, p) => engine.insert_tuple(tid, *desc, p.clone()).map(|_| ()),
        Update::Remove(id) => engine.remove_tuple(tid, *id).map(|_| ()),
    })
    .map_err(|e| format!("apply update: {e}"))
}

/// A set-up server with its client connections.
pub struct Live {
    pub server: Server,
    pub handle: ServeHandle,
    listener: Option<ListenerHandle>,
    server_threads: Vec<JoinHandle<ServerLog>>,
    conns: Vec<Conn>,
    ddir: Option<DurableDir>,
    tid: Option<Tid>,
    pub recovery: Option<RecoveryReport>,
    pub snapshot_bytes: usize,
    pub setup: Duration,
    pub setup_spans: Vec<Span>,
}

/// One timed op as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub conn: usize,
    pub index: u64,
    pub class: Option<Class>,
    pub key: Option<(Class, usize)>,
    pub nanos: u64,
    /// Start, in nanoseconds since the run's epoch.
    pub start: u64,
    pub ok: bool,
}

/// Everything a phase produced.
#[derive(Default)]
pub struct PhaseOut {
    /// Timed ops, all connections.
    pub samples: Vec<Sample>,
    /// Answers of every op (warm-up included), per connection, by index.
    pub answers: Vec<Vec<Option<Answer>>>,
    pub failures: Vec<String>,
    pub wall: Duration,
    pub spans: Vec<Span>,
    pub infos: Vec<OpInfo>,
    pub pings: Vec<u64>,
    pub writes: Vec<WriteIo>,
    /// `ServeHandle::stats()` at the start and end of the timed phase.
    pub stats_before: EngineStats,
    pub stats_after: EngineStats,
    /// Durations of syncs issued during the timed phase.
    pub sync_nanos: Vec<u64>,
    /// Peak resident set (VmHWM) of the timed phase, in KiB.
    pub peak_rss_kb: u64,
    pub calibration_ms: [f64; 2],
    /// The live instance after the last op (durable-write).
    pub final_tid: Option<Tid>,
}

/// Per-connection output.
struct ConnOut {
    samples: Vec<Sample>,
    answers: Vec<Option<Answer>>,
    failures: Vec<String>,
    spans: Vec<Span>,
    pings: Vec<u64>,
    writes: Vec<WriteIo>,
    tid: Option<Tid>,
}

/// A ping every this many ops of connection 0, traced runs only.
const PING_EVERY: u64 = 16;

impl Live {
    /// Runs every connection's stream: `warm` untimed ops, then
    /// `timed` timed ones, all connections starting the timed part
    /// together.
    pub fn run(&mut self, ctx: &Ctx, warm: &[u64], timed: &[u64], traced: bool) -> PhaseOut {
        let n = self.conns.len();
        let ready = Barrier::new(n + 1);
        let go = Barrier::new(n + 1);
        let mut out = PhaseOut {
            calibration_ms: [crate::report::calibrate(), 0.0],
            ..PhaseOut::default()
        };
        let mut io_start_syncs = 0;
        let mut conn_outs: Vec<ConnOut> = Vec::with_capacity(n);
        let mut conns: Vec<Conn> = self.conns.drain(..).collect();
        let mut tid = self.tid.take();
        let (handle, ddir) = (&self.handle, self.ddir.as_ref());
        let mut started = Instant::now();
        thread::scope(|scope| {
            let threads: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let (ready, go) = (&ready, &go);
                    let tid = if c == 0 { tid.take() } else { None };
                    let stream = ctx.stream(c);
                    scope.spawn(move || {
                        drive(
                            ctx,
                            handle,
                            ddir,
                            conn,
                            c,
                            stream,
                            tid,
                            (warm[c], timed[c]),
                            (ready, go),
                            traced,
                        )
                    })
                })
                .collect();
            ready.wait();
            crate::report::reset_peak_rss();
            out.stats_before = handle.stats();
            io_start_syncs = ctx.io.sync_nanos().len();
            started = Instant::now();
            go.wait();
            conn_outs = threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect();
        });
        out.wall = started.elapsed();
        out.peak_rss_kb = crate::report::peak_rss_kb();
        out.stats_after = handle.stats();
        out.sync_nanos = ctx.io.sync_nanos()[io_start_syncs..].to_vec();
        out.calibration_ms[1] = crate::report::calibrate();
        self.conns = conns;
        for c in conn_outs {
            out.samples.extend(c.samples);
            out.answers.push(c.answers);
            out.failures.extend(c.failures);
            out.spans.extend(c.spans);
            out.pings.extend(c.pings);
            out.writes.extend(c.writes);
            if c.tid.is_some() {
                out.final_tid = c.tid;
            }
        }
        out
    }

    /// Stops clients, listener and server; returns what traced server
    /// threads recorded.
    pub fn shut_down(mut self) -> ServerLog {
        self.conns.clear();
        let mut log = ServerLog::default();
        for t in self.server_threads.drain(..) {
            let part = t.join().expect("traced server thread panicked");
            log.spans.extend(part.spans);
            log.infos.extend(part.infos);
        }
        if let Some(listener) = self.listener.take() {
            listener.stop();
        }
        self.server.shutdown();
        log
    }
}

/// The closed loop of one connection.
#[allow(clippy::too_many_arguments)]
fn drive(
    ctx: &Ctx,
    handle: &ServeHandle,
    ddir: Option<&DurableDir>,
    conn: &mut Conn,
    c: usize,
    stream: Stream<'_>,
    mut tid: Option<Tid>,
    (warm, timed): (u64, u64),
    (ready, go): (&Barrier, &Barrier),
    traced: bool,
) -> ConnOut {
    let mut rec = if traced {
        Rec::on(ctx.epoch)
    } else {
        Rec::off(ctx.epoch)
    };
    let mut out = ConnOut {
        samples: Vec::with_capacity(timed as usize),
        answers: Vec::with_capacity((warm + timed) as usize),
        failures: Vec::new(),
        spans: Vec::new(),
        pings: Vec::new(),
        writes: Vec::new(),
        tid: None,
    };
    let mut stream = stream.take((warm + timed) as usize);
    let mut step = |op: Op, rec: &mut Rec, out: &mut ConnOut, timed: bool| {
        let id = op_id(c, op.index);
        let io_before = ctx.io.counts();
        let start = rec.now();
        let t0 = Instant::now();
        let result = match &op.action {
            Action::Socket(req) => request(conn, id, req, rec).and_then(Answer::of),
            Action::Write(update) => durable_write(
                handle.engine(),
                ddir.expect("durable-write has a durable dir"),
                &ctx.keys.durable,
                tid.as_mut().expect("durable-write has a live instance"),
                update,
                rec,
                id,
            )
            .map(|()| Answer::Done),
            Action::Checkpoint => rec
                .time("recovery.checkpoint", "op", id, || {
                    handle
                        .engine()
                        .with_engine(|e| ddir.expect("durable dir").checkpoint(e))
                })
                .map(|()| Answer::Done)
                .map_err(|e| format!("checkpoint: {e}")),
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        if rec.active() {
            rec.push("op", "", id, start, start + nanos);
        }
        if let Action::Write(_) = op.action {
            let io = ctx.io.counts();
            out.writes.push(WriteIo {
                syncs: io.syncs - io_before.syncs,
                appended: io.appended - io_before.appended,
                records: ctx.keys.durable.len() as u64,
            });
        }
        if timed {
            out.samples.push(Sample {
                conn: c,
                index: op.index,
                class: op.class,
                key: op.key,
                nanos,
                start,
                ok: result.is_ok(),
            });
        }
        match result {
            Ok(answer) => out.answers.push(Some(answer)),
            Err(e) => {
                out.failures.push(format!("op {c}/{}: {e}", op.index));
                out.answers.push(None);
            }
        }
        if !op.think.is_zero() {
            thread::sleep(op.think);
        }
    };
    for op in stream.by_ref().take(warm as usize) {
        step(op, &mut Rec::off(ctx.epoch), &mut out, false);
    }
    // Untimed: the warm-up's writes are not in the timed phase's counts.
    out.writes.clear();
    ready.wait();
    go.wait();
    for op in stream {
        let index = op.index;
        step(op, &mut rec, &mut out, true);
        if traced && c == 0 && index.is_multiple_of(PING_EVERY) {
            let t = Instant::now();
            if handle.ping().is_ok() {
                out.pings.push(t.elapsed().as_nanos() as u64);
            }
        }
    }
    out.spans = rec.take();
    out.tid = tid;
    out
}
