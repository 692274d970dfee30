//! `intext-serve` — the PQE server, as a process.
//!
//! ```text
//! intext-serve --demo                      # embedded workload, then exit
//! intext-serve --demo --wal state/         # durable workload: recover, verify, WAL + checkpoint
//! intext-serve --recover --wal state/      # recover + verify ≡ fresh compiles, then exit
//! intext-serve --tcp 127.0.0.1:7979        # serve the frame protocol over TCP
//! intext-serve --unix /tmp/intext.sock     # ... or a Unix-domain socket
//!     [--workers N] [--queue N] [--batch-budget N] [--deadline-ms N]
//! ```
//!
//! The demo starts an in-process server, pushes a mixed workload
//! through it (single exact queries, a sharded f64 batch, an estimate,
//! a cache snapshot), cross-checks every answer against a sequential
//! engine, and prints the merged stats — a smoke test of the whole
//! serve stack in one command.
//!
//! With `--wal DIR` the demo becomes the durable workload
//! `scripts/crash-loop.sh` SIGKILLs (DESIGN.md §12): it first recovers
//! whatever a previous incarnation left in `DIR` (printing the
//! [`RecoveryReport`](intext::engine::RecoveryReport)), verifies every
//! recovered artifact byte-identical to a fresh compile, then streams a
//! fixed seeded sequence of live tuple updates — each one WAL-logged
//! *before* it is applied, with periodic atomic checkpoints — and
//! prints the final exact answers. The update stream is deterministic,
//! so a run that completes prints the same `answer` lines no matter how
//! many earlier incarnations were killed mid-write. `--recover` does
//! the recover + verify part alone and exits (exit 1 on any mismatch).

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use intext::boolfn::{phi9, BoolFn};
use intext::engine::{DurableDir, EngineConfig, Plan, PqeEngine, SamplerKind, TupleUpdate};
use intext::numeric::BigRational;
use intext::query::HQuery;
use intext::serve::{listen_tcp, ServeConfig, Server};
use intext::tid::{complete_database, uniform_tid, Database, Tid, TupleDesc, TupleId};

#[cfg(unix)]
use intext::serve::listen_unix;

struct Args {
    tcp: Option<String>,
    unix: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    batch_budget: Option<usize>,
    deadline_ms: Option<u64>,
    demo: bool,
    wal: Option<String>,
    recover: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        unix: None,
        workers: None,
        queue: None,
        batch_budget: None,
        deadline_ms: None,
        demo: false,
        wal: None,
        recover: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--tcp" => args.tcp = Some(value()?),
            "--unix" => args.unix = Some(value()?),
            "--workers" => args.workers = Some(number(&flag, value()?)?),
            "--queue" => args.queue = Some(number(&flag, value()?)?),
            "--batch-budget" => args.batch_budget = Some(number(&flag, value()?)?),
            "--deadline-ms" => args.deadline_ms = Some(number(&flag, value()?)?),
            "--demo" => args.demo = true,
            "--wal" => args.wal = Some(value()?),
            "--recover" => args.recover = true,
            "--help" | "-h" => {
                println!(
                    "usage: intext-serve [--demo] [--wal DIR] [--recover] \
                     [--tcp ADDR] [--unix PATH] \
                     [--workers N] [--queue N] [--batch-budget N] [--deadline-ms N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.recover && args.wal.is_none() {
        return Err("--recover needs --wal DIR (the durable directory to recover)".into());
    }
    if !args.demo && !args.recover && args.tcp.is_none() && args.unix.is_none() {
        return Err("nothing to do: pass --demo, --recover, --tcp ADDR, or --unix PATH".into());
    }
    Ok(args)
}

/// Parses a numeric flag's value, naming the flag in the error.
fn number<T: FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn serve_config(args: &Args) -> ServeConfig {
    let mut config = ServeConfig {
        engine: EngineConfig::default(),
        ..ServeConfig::default()
    };
    if let Some(workers) = args.workers {
        config.workers = workers;
    }
    if let Some(queue) = args.queue {
        config.queue_capacity = queue;
    }
    config.max_batch_scenarios = args.batch_budget;
    config.default_deadline = args.deadline_ms.map(Duration::from_millis);
    config
}

fn demo(server: &Server) -> Result<(), String> {
    let handle = server.handle();
    let q9 = HQuery::new(phi9());
    let tid = uniform_tid(complete_database(3, 2), BigRational::from_ratio(1, 2));
    let scenarios: Vec<Tid> = (1..=6)
        .map(|i| uniform_tid(complete_database(3, 2), BigRational::from_ratio(i, 7)))
        .collect();

    // Sequential oracle for the cross-check.
    let mut oracle = PqeEngine::new();

    let served = handle.evaluate(&q9, &tid).map_err(|e| e.to_string())?;
    let expected = oracle.evaluate(&q9, &tid).map_err(|e| format!("{e}"))?;
    if served != expected {
        return Err("served exact answer diverged from the sequential engine".into());
    }
    println!("evaluate  φ9: {served} (= sequential engine, bit-identical)");

    let batch = handle
        .evaluate_batch_f64(&q9, &scenarios, 3)
        .map_err(|e| e.to_string())?;
    let expected_batch = oracle
        .evaluate_batch_sharded_f64(&q9, &scenarios, 3)
        .map_err(|e| format!("{e}"))?;
    if batch
        .iter()
        .zip(&expected_batch)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("served batch diverged from the sequential engine".into());
    }
    println!(
        "batch     φ9: {} scenarios across 3 shards, bit-identical to the engine's sharded path",
        batch.len()
    );

    let estimate = handle.estimate(&q9, &tid).map_err(|e| e.to_string())?;
    println!(
        "estimate  φ9: {:.6} (ε = {}, exact route)",
        estimate.value, estimate.eps
    );

    let snapshot = handle.snapshot().map_err(|e| e.to_string())?;
    let mut replica = PqeEngine::new();
    let report = replica
        .load_cache(&snapshot)
        .map_err(|e| format!("snapshot load: {e}"))?;
    if replica.evaluate(&q9, &tid).map_err(|e| format!("{e}"))? != expected {
        return Err("warm-started replica diverged".into());
    }
    println!(
        "snapshot : {} bytes, {} artifacts — replica warm-started, answers bit-identical",
        snapshot.len(),
        report.artifacts
    );

    let stats = handle.stats();
    println!(
        "stats    : {} queries ({} obdd / {} d-D / {} brute / {} sampled), \
         {} cache hits / {} misses",
        stats.queries,
        stats.plans(Plan::Obdd),
        stats.plans(Plan::DdCircuit),
        stats.plans(Plan::BruteForce),
        stats.plans(Plan::Sample(SamplerKind::KarpLuby)),
        stats.cache_hits,
        stats.cache_misses,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// The durable workload (`--wal DIR`): the crash-loop target.
// ---------------------------------------------------------------------

/// Chain length of the durable workload's instances.
const WAL_K: u8 = 2;
/// Domain size of the durable workload's instances.
const WAL_DOMAIN: u32 = 2;
/// Instance size cap (at most `2^7` possible worlds per evaluation).
const WAL_TUPLE_CAP: usize = 7;
/// Live updates per run. High enough that a run spends most of its
/// wall-clock fsyncing WAL records and rotating checkpoints — the
/// window `scripts/crash-loop.sh` aims its SIGKILLs at.
const WAL_STEPS: usize = 120;
/// Checkpoint cadence, in steps.
const WAL_CHECKPOINT_EVERY: usize = 3;
/// The fixed seed: every incarnation replays the same update stream,
/// so completed runs print identical `answer` lines regardless of how
/// many predecessors were killed mid-write.
const WAL_SEED: u64 = 0xD00D_5EED;

/// SplitMix64, as in the differential test harnesses.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn wal_rational(state: &mut u64) -> BigRational {
    let den = 1 + mix(state) % 6;
    let num = mix(state) % (den + 1);
    BigRational::from_ratio(num as i64, den)
}

/// Every tuple the `(WAL_K, WAL_DOMAIN)` vocabulary admits.
fn wal_universe() -> Vec<TupleDesc> {
    let mut all = Vec::new();
    for a in 0..WAL_DOMAIN {
        all.push(TupleDesc::R(a));
    }
    for i in 1..=WAL_K {
        for a in 0..WAL_DOMAIN {
            for b in 0..WAL_DOMAIN {
                all.push(TupleDesc::S(i, a, b));
            }
        }
    }
    for b in 0..WAL_DOMAIN {
        all.push(TupleDesc::T(b));
    }
    all
}

/// One live update of the workload stream.
enum WalOp {
    Insert(TupleDesc, BigRational),
    Remove(TupleId),
    Reweight(TupleId, BigRational),
}

impl WalOp {
    /// Applies this update to `tid`, which the stream guarantees legal.
    fn apply(&self, tid: &mut Tid) {
        match self {
            WalOp::Insert(desc, p) => {
                tid.insert(*desc, p.clone()).expect("absent tuple");
            }
            WalOp::Remove(id) => {
                tid.remove(*id).expect("present tuple");
            }
            WalOp::Reweight(id, p) => tid.set_prob(*id, p.clone()).expect("present tuple"),
        }
    }
}

/// The whole deterministic workload: the initial instance and the full
/// update stream, derived from [`WAL_SEED`] alone.
fn wal_workload() -> (Tid, Vec<WalOp>) {
    let mut state = WAL_SEED;
    let all = wal_universe();
    let mut tid = Tid::new(Database::new(WAL_K, WAL_DOMAIN), Vec::new()).expect("valid shape");
    for &t in &all {
        if tid.len() < WAL_TUPLE_CAP && mix(&mut state).is_multiple_of(2) {
            let p = wal_rational(&mut state);
            tid.insert(t, p).expect("fresh tuple");
        }
    }
    if tid.is_empty() {
        let p = wal_rational(&mut state);
        tid.insert(all[0], p).expect("fresh tuple");
    }
    let initial = tid.clone();
    let mut ops = Vec::with_capacity(WAL_STEPS);
    for _ in 0..WAL_STEPS {
        let present: Vec<TupleId> = tid.database().iter().map(|(id, _)| id).collect();
        let absent: Vec<TupleDesc> = all
            .iter()
            .copied()
            .filter(|t| !tid.database().iter().any(|(_, have)| have == *t))
            .collect();
        let can_insert = !absent.is_empty() && tid.len() < WAL_TUPLE_CAP;
        let roll = mix(&mut state) % 4;
        let op = if present.is_empty() || (can_insert && roll < 2) {
            let t = absent[(mix(&mut state) as usize) % absent.len()];
            WalOp::Insert(t, wal_rational(&mut state))
        } else if roll == 2 {
            WalOp::Remove(present[(mix(&mut state) as usize) % present.len()])
        } else {
            let id = present[(mix(&mut state) as usize) % present.len()];
            WalOp::Reweight(id, wal_rational(&mut state))
        };
        op.apply(&mut tid);
        ops.push(op);
    }
    (initial, ops)
}

/// The workload's durable functions: the first three cacheable-region
/// φs on `WAL_K + 1` variables (only cached artifacts have deltas to
/// log), plus the shape timeline the instance moves through.
fn wal_probes() -> (Vec<BoolFn>, Vec<Database>) {
    let (initial, ops) = wal_workload();
    let mut probe = PqeEngine::new();
    let tables: u64 = 1 << (1u64 << (WAL_K + 1));
    let mut durable = Vec::new();
    for t in 0..tables {
        let phi = BoolFn::from_table_u64(WAL_K + 1, t);
        let q = HQuery::new(phi.clone());
        probe.evaluate(&q, &initial).expect("probe evaluation");
        if probe.export_artifact(&q, initial.database()).is_ok() {
            durable.push(phi);
            if durable.len() == 3 {
                break;
            }
        }
    }
    let mut shapes = vec![initial.database().clone()];
    let mut tid = initial;
    for op in &ops {
        op.apply(&mut tid);
        shapes.push(tid.database().clone());
    }
    (durable, shapes)
}

/// Recovers `dir` and proves the recovered cache trustworthy: every
/// artifact it holds for a durable φ at any shape of the workload
/// timeline must be byte-identical to a fresh compile of that
/// (φ, shape). Returns the verified engine.
fn recover_verified(dir: &str) -> Result<PqeEngine, String> {
    let (engine, report) =
        PqeEngine::recover(EngineConfig::default(), dir).map_err(|e| format!("recover: {e}"))?;
    println!("recovery : {report}");
    let (durable, shapes) = wal_probes();
    let mut verified = 0usize;
    for phi in &durable {
        let q = HQuery::new(phi.clone());
        for shape in &shapes {
            let Ok(bytes) = engine.export_artifact(&q, shape) else {
                continue;
            };
            let mut fresh = PqeEngine::new();
            let probe = uniform_tid(shape.clone(), BigRational::from_ratio(1, 2));
            fresh.evaluate(&q, &probe).map_err(|e| format!("{e}"))?;
            let want = fresh
                .export_artifact(&q, shape)
                .map_err(|e| format!("fresh export: {e}"))?;
            if bytes != want {
                return Err(format!(
                    "recovered artifact for φ {:#x} differs from a fresh compile",
                    phi.table_u64()
                ));
            }
            verified += 1;
        }
    }
    println!("verify   : {verified} recovered artifact(s) byte-identical to fresh compiles");
    Ok(engine)
}

/// `--demo --wal DIR`: recover + verify, then stream the deterministic
/// durable workload (WAL-log each structural delta *before* applying
/// it, checkpoint periodically) and print the final exact answers.
fn durable_demo(dir: &str) -> Result<(), String> {
    let mut engine = recover_verified(dir)?;
    let ddir = DurableDir::open(dir).map_err(|e| format!("open {dir}: {e}"))?;
    let (mut tid, ops) = wal_workload();
    let (durable, _) = wal_probes();

    let warm = |engine: &mut PqeEngine, tid: &Tid| -> Result<(), String> {
        for phi in &durable {
            engine
                .evaluate(HQuery::new(phi.clone()), tid)
                .map_err(|e| format!("{e}"))?;
        }
        Ok(())
    };
    warm(&mut engine, &tid)?;
    ddir.checkpoint(&engine)
        .map_err(|e| format!("checkpoint: {e}"))?;

    for (step, op) in ops.iter().enumerate() {
        let update = match op {
            WalOp::Insert(desc, _) => Some(TupleUpdate::Insert { desc: *desc }),
            WalOp::Remove(id) => Some(TupleUpdate::Remove { id: id.0 }),
            WalOp::Reweight(..) => None,
        };
        if let Some(update) = update {
            warm(&mut engine, &tid)?;
            for phi in &durable {
                let delta = engine
                    .export_delta(&HQuery::new(phi.clone()), tid.database(), &update)
                    .map_err(|e| format!("export_delta: {e}"))?;
                ddir.log_delta(&delta)
                    .map_err(|e| format!("log_delta: {e}"))?;
            }
        }
        match op {
            WalOp::Insert(desc, p) => {
                engine
                    .insert_tuple(&mut tid, *desc, p.clone())
                    .map_err(|e| format!("{e}"))?;
            }
            WalOp::Remove(id) => {
                engine
                    .remove_tuple(&mut tid, *id)
                    .map_err(|e| format!("{e}"))?;
            }
            WalOp::Reweight(id, p) => {
                engine
                    .set_probability(&mut tid, *id, p.clone())
                    .map_err(|e| format!("{e}"))?;
            }
        }
        if step % WAL_CHECKPOINT_EVERY == WAL_CHECKPOINT_EVERY - 1 {
            ddir.checkpoint(&engine)
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
    }

    // Final exact answers: the durable φs plus three hard-region
    // functions, all over the final instance. Deterministic — the
    // crash-loop script diffs these lines against a reference run.
    let mut answer_fns = durable;
    for table in [0x16u64, 0x69, 0xE8] {
        answer_fns.push(BoolFn::from_table_u64(WAL_K + 1, table));
    }
    for phi in &answer_fns {
        let p = engine
            .evaluate(HQuery::new(phi.clone()), &tid)
            .map_err(|e| format!("{e}"))?;
        println!("answer   : φ {:#04x} = {p}", phi.table_u64());
    }
    let stats = engine.stats();
    println!(
        "stats    : {} wal records applied, {} quarantined, {} patches applied, \
         {} cache entries",
        stats.wal_records_applied,
        stats.recovery_quarantines,
        stats.patches_applied,
        engine.cache_len(),
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("intext-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Durable modes run the engine directly — no worker pool to start.
    if args.recover {
        let dir = args.wal.as_deref().expect("checked in parse_args");
        return match recover_verified(dir) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("intext-serve: recover failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.demo {
        if let Some(dir) = args.wal.as_deref() {
            return match durable_demo(dir) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("intext-serve: durable demo failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }

    let server = match Server::start(serve_config(&args)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("intext-serve: bad engine config: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.demo {
        if let Err(e) = demo(&server) {
            eprintln!("intext-serve: demo failed: {e}");
            return ExitCode::FAILURE;
        }
        server.shutdown();
        return ExitCode::SUCCESS;
    }

    // Keep the listeners alive until the process is killed.
    let mut listeners = Vec::new();
    if let Some(addr) = &args.tcp {
        match listen_tcp(server.handle(), addr.as_str()) {
            Ok(listener) => {
                println!(
                    "intext-serve: listening on tcp {}",
                    listener.tcp_addr().expect("tcp listener has a tcp addr")
                );
                listeners.push(listener);
            }
            Err(e) => {
                eprintln!("intext-serve: tcp bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(unix)]
    if let Some(path) = &args.unix {
        match listen_unix(server.handle(), path) {
            Ok(listener) => {
                println!("intext-serve: listening on unix {path}");
                listeners.push(listener);
            }
            Err(e) => {
                eprintln!("intext-serve: unix bind {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(not(unix))]
    if args.unix.is_some() {
        eprintln!("intext-serve: --unix is unsupported on this platform");
        return ExitCode::FAILURE;
    }

    loop {
        std::thread::park();
    }
}
