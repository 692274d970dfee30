//! Crash-safety differential harness for the durability layer
//! (`DESIGN.md` §12): WAL'd deltas, atomic snapshot rotation, and
//! [`PqeEngine::recover`].
//!
//! The durability claim is the strongest one the engine makes: after a
//! crash at **any** write boundary of a WAL + checkpoint workload,
//! recovery rebuilds an engine whose answers — exact rationals *and*
//! f64 bits — and whose serialized artifacts are byte-identical to an
//! engine that never crashed. The harness proves it by enumeration, not
//! by luck:
//!
//! 1. a workload of random live updates runs fault-free over an
//!    in-memory filesystem behind a [`FaultIo`] counter, which yields
//!    the exact number of storage operations it performs;
//! 2. the same workload then re-runs once per operation index with a
//!    deterministic crash injected there (optionally leaving a torn
//!    prefix of the fatal write), and every interrupted history is
//!    recovered and compared against the uncrashed reference for **all**
//!    272 Boolean functions with `k ≤ 2`;
//! 3. corruption matrices mutate every field of a WAL record frame and
//!    of a delta blob, pinning the specific typed error each mutation
//!    produces — recovery and `apply_delta` are total, never a panic;
//! 4. a proptest flips random bytes across the whole durable directory
//!    and asserts recovery always ends in a working engine plus a clean
//!    quarantine report, and that a second recovery finds nothing left
//!    to repair.
//!
//! [`PqeEngine::recover`]: intext_engine::PqeEngine::recover
//! [`FaultIo`]: intext_engine::fsio::FaultIo

mod common;

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use intext_boolfn::BoolFn;
use intext_engine::fsio::{FaultIo, FaultPlan, MemFs, StorageIo};
use intext_engine::wal::{Wal, WalCorruption, RECORD_HEADER_LEN};
use intext_engine::{
    DurableDir, EngineConfig, PqeEngine, SnapshotSource, StoreError, TupleUpdate, MAGIC,
    SNAPSHOT_FILE, SNAPSHOT_PREV_FILE, SNAPSHOT_TMP_FILE, WAL_FILE,
};
use intext_numeric::BigRational;
use intext_query::HQuery;
use intext_tid::{uniform_tid, Database, Tid, TupleDesc, TupleId};
use proptest::prelude::*;

/// Domain size of every instance in the harness.
const DOMAIN: u32 = 2;

/// Instance size cap, as in `tests/engine_incremental.rs`: at most
/// `2^7` possible worlds keeps the exact sweeps over all 272 functions
/// fast while exercising every slot shape.
const TUPLE_CAP: usize = 7;

/// Live updates per workload. With the checkpoint cadence below this
/// yields histories that crash before the first commit, between
/// commits, and inside the WAL tail after the last commit.
const STEPS: usize = 5;

/// Storage operations consumed by `DurableDir::open_with` plus the
/// first `checkpoint` (no previous generation yet): `create_dir_all`,
/// snapshot write + sync, rename into place, directory sync, WAL
/// truncate write + sync. A crash at any later operation happens after
/// a snapshot has committed, so recovery must never cold-start.
const FIRST_COMMIT_OPS: u64 = 7;

/// SplitMix64, the same generator the other differential harnesses use:
/// the whole history of a case derives from one `u64`.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rational(state: &mut u64) -> BigRational {
    let den = 1 + mix(state) % 6;
    let num = mix(state) % (den + 1);
    BigRational::from_ratio(num as i64, den)
}

fn half() -> BigRational {
    BigRational::from_ratio(1, 2)
}

/// Every tuple the vocabulary `(k, domain)` admits.
fn universe(k: u8, domain: u32) -> Vec<TupleDesc> {
    let mut all = Vec::new();
    for a in 0..domain {
        all.push(TupleDesc::R(a));
    }
    for i in 1..=k {
        for a in 0..domain {
            for b in 0..domain {
                all.push(TupleDesc::S(i, a, b));
            }
        }
    }
    for b in 0..domain {
        all.push(TupleDesc::T(b));
    }
    all
}

fn random_tid(state: &mut u64, k: u8, domain: u32, cap: usize) -> Tid {
    let mut tid = Tid::new(Database::new(k, domain), Vec::new()).unwrap();
    let all = universe(k, domain);
    for &t in &all {
        if tid.len() < cap && mix(state).is_multiple_of(2) {
            let p = rational(state);
            tid.insert(t, p).unwrap();
        }
    }
    if tid.is_empty() {
        let p = rational(state);
        tid.insert(all[0], p).unwrap();
    }
    tid
}

/// One live update of the workload stream.
enum Op {
    Insert(TupleDesc, BigRational),
    Remove(TupleId),
    Reweight(TupleId, BigRational),
}

fn random_op(state: &mut u64, tid: &Tid, all: &[TupleDesc], cap: usize) -> Op {
    let present: Vec<TupleId> = tid.database().iter().map(|(id, _)| id).collect();
    let absent: Vec<TupleDesc> = all
        .iter()
        .copied()
        .filter(|t| !tid.database().iter().any(|(_, have)| have == *t))
        .collect();
    let can_insert = !absent.is_empty() && tid.len() < cap;
    let roll = mix(state) % 4;
    if present.is_empty() || (can_insert && roll < 2) {
        let t = absent[(mix(state) as usize) % absent.len()];
        let p = rational(state);
        Op::Insert(t, p)
    } else if roll == 2 {
        Op::Remove(present[(mix(state) as usize) % present.len()])
    } else {
        let id = present[(mix(state) as usize) % present.len()];
        let p = rational(state);
        Op::Reweight(id, p)
    }
}

fn apply_op(engine: &mut PqeEngine, tid: &mut Tid, op: &Op) {
    match op {
        Op::Insert(desc, p) => {
            engine.insert_tuple(tid, *desc, p.clone()).unwrap();
        }
        Op::Remove(id) => {
            engine.remove_tuple(tid, *id).unwrap();
        }
        Op::Reweight(id, p) => {
            engine.set_probability(tid, *id, p.clone()).unwrap();
        }
    }
}

/// All `2^(2^(k+1))` Boolean functions on `k + 1` variables.
fn all_functions(k: u8) -> Vec<BoolFn> {
    let tables: u64 = 1 << (1u64 << (k + 1));
    (0..tables)
        .map(|t| BoolFn::from_table_u64(k + 1, t))
        .collect()
}

/// The first three cacheable-region functions for chain length `k` —
/// the φs whose artifacts the workload keeps durable. Determined by
/// probing (evaluate, then ask for the artifact): exactly the OBDD and
/// d-D regions cache, and only cached artifacts can export deltas.
fn durable_fns(k: u8) -> Vec<BoolFn> {
    let mut probe = PqeEngine::new();
    let mut state = 0x5EED ^ u64::from(k);
    let tid = random_tid(&mut state, k, DOMAIN, 5);
    let mut out = Vec::new();
    for phi in all_functions(k) {
        let q = HQuery::new(phi.clone());
        probe.evaluate(&q, &tid).unwrap();
        if probe.export_artifact(&q, tid.database()).is_ok() {
            out.push(phi);
            if out.len() == 3 {
                break;
            }
        }
    }
    assert!(out.len() >= 2, "k={k}: too few cacheable functions");
    out
}

/// Ensures every durable φ has a cached artifact for `tid`'s current
/// shape, so the next `export_delta` against that shape succeeds.
fn warm(engine: &mut PqeEngine, tid: &Tid, durable: &[BoolFn]) {
    for phi in durable {
        engine.evaluate(HQuery::new(phi.clone()), tid).unwrap();
    }
}

/// The durable workload, identical in every run of one seed: build a
/// random instance, warm and checkpoint, then stream random updates —
/// each structural update WAL-logged (one delta per durable φ, appended
/// and fsynced **before** the in-memory apply) with a mid-stream
/// checkpoint. Returns the uncrashed engine, the final instance, and
/// the timeline of shapes the instance moved through; any injected
/// storage fault surfaces as the `Err` a real process would die on.
fn drive(
    io: Arc<dyn StorageIo>,
    seed: u64,
    k: u8,
    durable: &[BoolFn],
) -> io::Result<(PqeEngine, Tid, Vec<Database>)> {
    let dir = DurableDir::open_with("engine", io)?;
    let mut state = seed ^ u64::from(k);
    let all = universe(k, DOMAIN);
    let mut tid = random_tid(&mut state, k, DOMAIN, TUPLE_CAP);
    let mut engine = PqeEngine::new();
    let mut shapes = vec![tid.database().clone()];
    warm(&mut engine, &tid, durable);
    dir.checkpoint(&engine)?;
    for step in 0..STEPS {
        let op = random_op(&mut state, &tid, &all, TUPLE_CAP);
        let update = match &op {
            Op::Insert(desc, _) => Some(TupleUpdate::Insert { desc: *desc }),
            Op::Remove(id) => Some(TupleUpdate::Remove { id: id.0 }),
            // Probabilities are not part of any artifact, so a reweight
            // has no structural delta to make durable.
            Op::Reweight(..) => None,
        };
        if let Some(update) = update {
            warm(&mut engine, &tid, durable);
            for phi in durable {
                let delta = engine
                    .export_delta(&HQuery::new(phi.clone()), tid.database(), &update)
                    .expect("durable φ is cached for the pre-update shape");
                dir.log_delta(&delta)?;
            }
        }
        apply_op(&mut engine, &mut tid, &op);
        shapes.push(tid.database().clone());
        if step % 3 == 2 {
            dir.checkpoint(&engine)?;
        }
    }
    Ok((engine, tid, shapes))
}

/// Per-function reference record: exact answer, f64 bits, and the
/// serialized artifact for the final shape (`None` for uncacheable φ).
type Reference = Vec<(BigRational, u64, Option<Vec<u8>>)>;

fn reference_table(engine: &mut PqeEngine, tid: &Tid, fns: &[BoolFn]) -> Reference {
    fns.iter()
        .map(|phi| {
            let q = HQuery::new(phi.clone());
            let exact = engine.evaluate(&q, tid).unwrap();
            let bits = engine.evaluate_f64(&q, tid).unwrap().to_bits();
            let artifact = engine.export_artifact(&q, tid.database()).ok();
            (exact, bits, artifact)
        })
        .collect()
}

/// A fresh compile of `phi` over `shape`, serialized — the byte-level
/// ground truth any recovered artifact for that key must equal.
fn fresh_artifact(phi: &BoolFn, shape: &Database) -> Vec<u8> {
    let q = HQuery::new(phi.clone());
    let tid = uniform_tid(shape.clone(), half());
    let mut engine = PqeEngine::new();
    engine.evaluate(&q, &tid).unwrap();
    engine.export_artifact(&q, shape).unwrap()
}

/// A clean recovery handle over the surviving bytes — the "new process"
/// after the faulted one died.
fn reopen(mem: &Arc<MemFs>) -> DurableDir {
    DurableDir::open_with("engine", Arc::clone(mem) as Arc<dyn StorageIo>).unwrap()
}

/// The internal-consistency checks every recovery must pass, whatever
/// the damage: the report's counters mirror the engine's stats, and
/// every quarantined file still holds — at its new name — exactly the
/// bytes it had before recovery touched it (corruption is preserved as
/// evidence, never deleted).
fn assert_report_consistent(
    engine: &PqeEngine,
    report: &intext_engine::RecoveryReport,
    before: &HashMap<PathBuf, Vec<u8>>,
    mem: &MemFs,
    context: &str,
) {
    assert_eq!(
        engine.stats().wal_records_applied,
        report.wal_records_applied,
        "{context}: stats must mirror the report's replay count"
    );
    assert_eq!(
        engine.stats().recovery_quarantines,
        report.quarantined.len() as u64,
        "{context}: stats must mirror the report's quarantine count"
    );
    for q in &report.quarantined {
        let original = before.get(&q.original).unwrap_or_else(|| {
            panic!(
                "{context}: quarantined {} never existed",
                q.original.display()
            )
        });
        assert_eq!(
            &mem.read(&q.moved_to).unwrap(),
            original,
            "{context}: quarantine must preserve the corrupt bytes verbatim"
        );
        assert!(
            !q.reason.is_empty(),
            "{context}: quarantine carries its reason"
        );
    }
}

/// How many seeds the crash-point sweeps run: one locally, two when CI
/// asks for the deep statistical corpus (`INTEXT_TEST_SEEDS`).
fn sweep_seeds() -> u64 {
    if common::seed_count() > common::DEFAULT_SEEDS {
        2
    } else {
        1
    }
}

/// The tentpole differential: enumerate **every** storage operation of
/// the workload as a crash point (with a rotating torn-write prefix),
/// recover each interrupted history through a clean handle, and demand
/// byte-identity with the uncrashed reference — exact rationals, f64
/// bits, and serialized artifacts for all 272 `k ≤ 2` functions, plus
/// fresh-compile byte-identity for whatever artifacts the recovered
/// cache holds before answering anything.
#[test]
fn crash_at_every_write_boundary_recovers_byte_identically() {
    for round in 0..sweep_seeds() {
        for k in 1u8..=2 {
            let seed = common::BASE_SEED ^ (round << 48) ^ (u64::from(k) << 32);
            let durable = durable_fns(k);
            let fns = all_functions(k);

            // Fault-free run: the reference engine and the op count that
            // enumerates every crash point of this workload.
            let ref_mem = Arc::new(MemFs::new());
            let counter = Arc::new(FaultIo::new(
                Arc::clone(&ref_mem) as Arc<dyn StorageIo>,
                FaultPlan::default(),
            ));
            let (mut reference, tid, shapes) = drive(
                Arc::clone(&counter) as Arc<dyn StorageIo>,
                seed,
                k,
                &durable,
            )
            .expect("fault-free run");
            let total_ops = counter.ops();
            assert!(
                total_ops > FIRST_COMMIT_OPS,
                "k={k}: the workload must write past its first commit"
            );
            let table = reference_table(&mut reference, &tid, &fns);

            // Fresh-compile bytes per (durable φ, timeline shape), built on
            // demand — the ground truth for recovered cache contents.
            let mut fresh: HashMap<(u64, usize), Vec<u8>> = HashMap::new();

            for crash_at in 0..total_ops {
                let context = format!("k={k} round={round} crash at op {crash_at}");
                let mem = Arc::new(MemFs::new());
                let plan = FaultPlan {
                    crash_at_op: Some(crash_at),
                    torn_bytes: (crash_at % 5) as usize,
                    ..FaultPlan::default()
                };
                let faulted = Arc::new(FaultIo::new(Arc::clone(&mem) as Arc<dyn StorageIo>, plan));
                let crashed = drive(faulted as Arc<dyn StorageIo>, seed, k, &durable);
                assert!(crashed.is_err(), "{context}: the workload must die");

                let dir = reopen(&mem);
                let before = mem.files();
                let (mut recovered, report) =
                    PqeEngine::recover_with(EngineConfig::default(), &dir)
                        .unwrap_or_else(|e| panic!("{context}: recovery must not error: {e}"));
                assert_report_consistent(&recovered, &report, &before, &mem, &context);
                if crash_at >= FIRST_COMMIT_OPS {
                    assert!(
                        !matches!(report.snapshot, SnapshotSource::Cold),
                        "{context}: a committed snapshot must never be lost"
                    );
                }

                // Whatever the recovered cache holds for a durable φ at any
                // shape the instance moved through must be byte-identical
                // to a fresh compile of that (φ, shape) — snapshots and
                // replayed deltas can lag the crash, never corrupt.
                for phi in &durable {
                    let q = HQuery::new(phi.clone());
                    for (si, shape) in shapes.iter().enumerate() {
                        if let Ok(bytes) = recovered.export_artifact(&q, shape) {
                            let want = fresh
                                .entry((phi.table_u64(), si))
                                .or_insert_with(|| fresh_artifact(phi, shape));
                            assert_eq!(
                                &bytes,
                                want,
                                "{context}: recovered artifact for φ {:#x} at shape {si} \
                                 differs from a fresh compile",
                                phi.table_u64()
                            );
                        }
                    }
                }

                // The full differential on the final instance: every
                // function answers and serializes exactly like the engine
                // that never crashed.
                for (phi, (exact, bits, artifact)) in fns.iter().zip(&table) {
                    let q = HQuery::new(phi.clone());
                    assert_eq!(
                        &recovered.evaluate(&q, &tid).unwrap(),
                        exact,
                        "{context}: exact answer for φ {:#x}",
                        phi.table_u64()
                    );
                    assert_eq!(
                        recovered.evaluate_f64(&q, &tid).unwrap().to_bits(),
                        *bits,
                        "{context}: f64 bits for φ {:#x}",
                        phi.table_u64()
                    );
                    assert_eq!(
                        &recovered.export_artifact(&q, tid.database()).ok(),
                        artifact,
                        "{context}: final artifact bytes for φ {:#x}",
                        phi.table_u64()
                    );
                }
            }
        }
    }
}

/// Failed fsyncs are the "disk said no but the process lives" case:
/// they must surface as errors at the call site (the workload stops,
/// exactly like a caller honoring the durability contract), leave no
/// torn bytes behind, and recovery from the resulting directory is
/// exact. Operations that are not syncs are unaffected and the run
/// completes identically to the reference.
#[test]
fn failed_fsyncs_surface_as_errors_and_recovery_stays_exact() {
    let k = 1u8;
    let seed = common::BASE_SEED ^ 0xF5;
    let durable = durable_fns(k);
    let fns = all_functions(k);

    let ref_mem = Arc::new(MemFs::new());
    let counter = Arc::new(FaultIo::new(
        Arc::clone(&ref_mem) as Arc<dyn StorageIo>,
        FaultPlan::default(),
    ));
    let (mut reference, tid, _) = drive(
        Arc::clone(&counter) as Arc<dyn StorageIo>,
        seed,
        k,
        &durable,
    )
    .expect("fault-free");
    let total_ops = counter.ops();
    let table = reference_table(&mut reference, &tid, &fns);

    let mut syncs_hit = 0u32;
    for op in 0..total_ops {
        let mem = Arc::new(MemFs::new());
        let plan = FaultPlan {
            fail_sync_at: vec![op],
            ..FaultPlan::default()
        };
        let faulted = Arc::new(FaultIo::new(Arc::clone(&mem) as Arc<dyn StorageIo>, plan));
        let run = drive(faulted as Arc<dyn StorageIo>, seed, k, &durable);
        let mut engine = match run {
            // Operation `op` was not a sync: the injection never fired
            // and the run must be indistinguishable from the reference.
            Ok((engine, final_tid, _)) => {
                assert_eq!(
                    final_tid.database().len(),
                    tid.database().len(),
                    "op {op}: a non-sync injection must not change the history"
                );
                engine
            }
            // Operation `op` was a sync: the error stopped the workload
            // with the durable state fully intact (no torn bytes — the
            // write part of every protocol step had already landed), so
            // recovery must be clean and exact.
            Err(_) => {
                syncs_hit += 1;
                let dir = reopen(&mem);
                let before = mem.files();
                let (recovered, report) =
                    PqeEngine::recover_with(EngineConfig::default(), &dir).unwrap();
                assert!(
                    report.quarantined.is_empty() && report.wal_cut.is_none(),
                    "op {op}: a failed fsync tears nothing, so nothing is quarantined"
                );
                assert_report_consistent(&recovered, &report, &before, &mem, &format!("op {op}"));
                recovered
            }
        };
        for (phi, (exact, bits, _)) in fns.iter().zip(&table) {
            let q = HQuery::new(phi.clone());
            assert_eq!(&engine.evaluate(&q, &tid).unwrap(), exact, "op {op}: exact");
            assert_eq!(
                engine.evaluate_f64(&q, &tid).unwrap().to_bits(),
                *bits,
                "op {op}: f64 bits"
            );
        }
    }
    assert!(syncs_hit >= 4, "the workload must contain fsync boundaries");
}

// ---------------------------------------------------------------------
// Corruption matrices
// ---------------------------------------------------------------------

/// FNV-1a 64, reimplemented independently of the store so the matrix
/// can re-seal blobs it has mutated (same published constants).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Applies `mutate` to a copy of `blob` and rewrites the trailing store
/// checksum so the mutation survives the integrity check — how the
/// matrix reaches the typed errors *behind* `ChecksumMismatch`.
fn resealed(blob: &[u8], mutate: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut bytes = blob.to_vec();
    mutate(&mut bytes);
    let n = bytes.len();
    let checksum = fnv1a64(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// The fixed delta-blob fixture of the corruption matrix: shape
/// `{R(0), T(1)}` at `k = 1`, `domain = 2`, shipping `Insert R(1)`.
/// Returns the warm engine, its instance, the first durable φ, and the
/// exported blob, whose layout the offsets below index into.
fn delta_fixture() -> (PqeEngine, Tid, BoolFn, Vec<u8>) {
    let mut tid = Tid::new(Database::new(1, DOMAIN), Vec::new()).unwrap();
    tid.insert(TupleDesc::R(0), half()).unwrap();
    tid.insert(TupleDesc::T(1), half()).unwrap();
    let phi = durable_fns(1).remove(0);
    let mut engine = PqeEngine::new();
    engine.evaluate(HQuery::new(phi.clone()), &tid).unwrap();
    let delta = engine
        .export_delta(
            &HQuery::new(phi.clone()),
            tid.database(),
            &TupleUpdate::Insert {
                desc: TupleDesc::R(1),
            },
        )
        .unwrap();
    (engine, tid, phi, delta)
}

// Byte offsets inside the fixture blob (store format, `DESIGN.md` §5):
// magic 0..8, version 8..10, kind 10, φ var count 11, φ table word
// 12..20, k 20, domain 21..25, tuple count 25..29, R(0) 29..34,
// T(1) 34..39, op tag 39, then the op body and the trailing checksum.
const OFF_KIND: usize = 10;
const OFF_VARS: usize = 11;
const OFF_WORD: usize = 12;
const OFF_K: usize = 20;
const OFF_DOMAIN: usize = 21;
const OFF_COUNT: usize = 25;
const OFF_TUPLE_0: usize = 29;
const OFF_TUPLE_1: usize = 34;
const OFF_OP: usize = 39;

/// Every field of a delta blob mutated, one at a time, each yielding
/// its specific typed [`StoreError`] — and `apply_delta` leaving the
/// engine bit-for-bit unaffected by every rejection.
#[test]
fn delta_corruption_matrix_is_typed_and_total() {
    let (mut engine, tid, phi, delta) = delta_fixture();
    assert_eq!(delta[..8], MAGIC, "fixture layout: magic");
    assert_eq!(delta.len(), OFF_OP + 1 + 5 + 8, "fixture layout: length");
    let loads_before = engine.stats().artifact_loads;
    let cache_before = engine.cache_len();

    // Header fields are checked before the checksum, so these need no
    // re-seal.
    let mut bad_magic = delta.clone();
    bad_magic[0] ^= 1;
    assert_eq!(engine.apply_delta(&bad_magic), Err(StoreError::BadMagic));
    let mut bad_version = delta.clone();
    bad_version[8] = 99;
    bad_version[9] = 0;
    assert_eq!(
        engine.apply_delta(&bad_version),
        Err(StoreError::UnsupportedVersion(99))
    );
    assert_eq!(engine.apply_delta(&delta[..10]), Err(StoreError::Truncated));

    // Behind the checksum: every inner field, re-sealed so the mutation
    // reaches its own validator.
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, Vec<u8>, Box<dyn Fn(&StoreError) -> bool>)> = vec![
        (
            "kind = artifact",
            resealed(&delta, |b| b[OFF_KIND] = 0),
            Box::new(|e| {
                matches!(e, StoreError::WrongContainer { expected, got }
                    if *expected == "update delta" && *got == "artifact")
            }),
        ),
        (
            "kind = bundle",
            resealed(&delta, |b| b[OFF_KIND] = 2),
            Box::new(|e| {
                matches!(e, StoreError::WrongContainer { expected, got }
                    if *expected == "update delta" && *got == "cache bundle")
            }),
        ),
        (
            "kind = 9",
            resealed(&delta, |b| b[OFF_KIND] = 9),
            Box::new(|e| matches!(e, StoreError::BadKind(9))),
        ),
        (
            "φ with zero variables",
            resealed(&delta, |b| b[OFF_VARS] = 0),
            Box::new(|e| matches!(e, StoreError::BadPhi)),
        ),
        (
            "φ table with stray bits",
            resealed(&delta, |b| {
                b[OFF_WORD..OFF_WORD + 8].copy_from_slice(&u64::MAX.to_le_bytes())
            }),
            Box::new(|e| matches!(e, StoreError::BadPhi)),
        ),
        (
            "chain length zero",
            resealed(&delta, |b| b[OFF_K] = 0),
            Box::new(|e| matches!(e, StoreError::ZeroChainLength)),
        ),
        (
            "domain too small for its tuples",
            resealed(&delta, |b| {
                b[OFF_DOMAIN..OFF_DOMAIN + 4].copy_from_slice(&0u32.to_le_bytes())
            }),
            Box::new(|e| matches!(e, StoreError::BadTuple(_))),
        ),
        (
            // An absurd count makes the reader consume the op and
            // checksum bytes as tuples: it fails on whichever typed
            // check a misread tuple trips first, or runs out of bytes.
            "tuple count beyond the bytes",
            resealed(&delta, |b| {
                b[OFF_COUNT..OFF_COUNT + 4].copy_from_slice(&1000u32.to_le_bytes())
            }),
            Box::new(|e| {
                matches!(
                    e,
                    StoreError::Truncated | StoreError::BadTuple(_) | StoreError::BadTupleTag(_)
                )
            }),
        ),
        (
            "tuple tag 7",
            resealed(&delta, |b| b[OFF_TUPLE_0] = 7),
            Box::new(|e| matches!(e, StoreError::BadTupleTag(7))),
        ),
        (
            "out-of-domain constant",
            resealed(&delta, |b| {
                b[OFF_TUPLE_0 + 1..OFF_TUPLE_0 + 5].copy_from_slice(&9u32.to_le_bytes())
            }),
            Box::new(|e| matches!(e, StoreError::BadTuple(_))),
        ),
        (
            "duplicate tuple",
            resealed(&delta, |b| {
                b[OFF_TUPLE_1] = 0;
                b[OFF_TUPLE_1 + 1..OFF_TUPLE_1 + 5].copy_from_slice(&0u32.to_le_bytes());
            }),
            Box::new(|e| matches!(e, StoreError::BadTuple(_))),
        ),
        (
            "delta op 9",
            resealed(&delta, |b| b[OFF_OP] = 9),
            Box::new(|e| matches!(e, StoreError::BadDeltaOp(9))),
        ),
        (
            "truncated before the op body",
            resealed(&delta, |b| b.truncate(OFF_OP + 1 + 8)),
            Box::new(|e| matches!(e, StoreError::Truncated)),
        ),
        (
            "trailing byte after the op",
            resealed(&delta, |b| {
                let at = b.len() - 8;
                b.insert(at, 0xEE);
            }),
            Box::new(|e| matches!(e, StoreError::TrailingBytes { extra: 1 })),
        ),
        (
            "checksum flipped",
            {
                let mut b = delta.clone();
                let last = b.len() - 1;
                b[last] ^= 1;
                b
            },
            Box::new(|e| matches!(e, StoreError::ChecksumMismatch { .. })),
        ),
    ];
    for (name, bytes, expect) in &cases {
        let err = engine
            .apply_delta(bytes)
            .expect_err(&format!("mutation '{name}' must be rejected"));
        assert!(expect(&err), "mutation '{name}': got {err:?}");
    }

    // Exhaustive single-bit sweep: a flip anywhere in the blob is caught
    // by the layer that owns those bytes, never by a panic.
    for i in 0..delta.len() {
        let mut flipped = delta.clone();
        flipped[i] ^= 1;
        let err = engine
            .apply_delta(&flipped)
            .expect_err("a single-bit flip never decodes");
        let ok = match i {
            0..8 => matches!(err, StoreError::BadMagic),
            8..10 => matches!(err, StoreError::UnsupportedVersion(_)),
            _ => matches!(err, StoreError::ChecksumMismatch { .. }),
        };
        assert!(ok, "flip at byte {i}: got {err:?}");
    }

    // Well-formed bytes whose *operation* is illegal on their own shape
    // fail at apply time with the same totality.
    let dup = engine
        .export_delta(
            &HQuery::new(phi.clone()),
            tid.database(),
            &TupleUpdate::Insert {
                desc: TupleDesc::R(0),
            },
        )
        .unwrap();
    assert!(matches!(
        engine.apply_delta(&dup),
        Err(StoreError::BadTuple(_))
    ));
    let gone = engine
        .export_delta(
            &HQuery::new(phi.clone()),
            tid.database(),
            &TupleUpdate::Remove { id: 99 },
        )
        .unwrap();
    assert!(matches!(
        engine.apply_delta(&gone),
        Err(StoreError::BadTuple(_))
    ));

    // Every rejection above changed nothing: same cache, same load
    // count, same answers.
    assert_eq!(engine.cache_len(), cache_before);
    assert_eq!(engine.stats().artifact_loads, loads_before);
    let q = HQuery::new(phi.clone());
    let mut check = PqeEngine::new();
    assert_eq!(
        engine.evaluate(&q, &tid).unwrap(),
        check.evaluate(&q, &tid).unwrap(),
        "the engine must be untouched by rejected deltas"
    );
}

/// Swapping the fixture's φ for each of the 16 two-variable functions
/// (re-sealed): `apply_delta` accepts exactly the cacheable regions and
/// rejects the rest with [`StoreError::PlanMismatch`] — a delta no
/// engine could have exported — without ever panicking.
#[test]
fn delta_region_sweep_accepts_exactly_the_cacheable_functions() {
    let (_, tid, _, delta) = delta_fixture();
    for phi in all_functions(1) {
        let blob = resealed(&delta, |b| {
            b[OFF_WORD..OFF_WORD + 8].copy_from_slice(&phi.table_u64().to_le_bytes())
        });
        let mut probe = PqeEngine::new();
        probe.evaluate(HQuery::new(phi.clone()), &tid).unwrap();
        let cacheable = probe
            .export_artifact(&HQuery::new(phi.clone()), tid.database())
            .is_ok();
        let mut cold = PqeEngine::new();
        let applied = cold.apply_delta(&blob);
        if cacheable {
            let report = applied
                .unwrap_or_else(|e| panic!("cacheable φ {:#x} must apply: {e}", phi.table_u64()));
            assert_eq!(report.artifacts, 1);
        } else {
            assert!(
                matches!(applied, Err(StoreError::PlanMismatch { .. })),
                "uncacheable φ {:#x} must be a plan mismatch",
                phi.table_u64()
            );
        }
    }
}

/// A small durable history for the WAL matrix: one checkpoint, then two
/// WAL-logged inserts that were applied in memory but never
/// re-checkpointed. Returns the shared filesystem, the uncrashed
/// engine, the final instance, and the durable φ.
fn wal_fixture() -> (Arc<MemFs>, PqeEngine, Tid, BoolFn) {
    let mem = Arc::new(MemFs::new());
    let dir = reopen(&mem);
    let mut tid = Tid::new(Database::new(1, DOMAIN), Vec::new()).unwrap();
    tid.insert(TupleDesc::R(0), half()).unwrap();
    tid.insert(TupleDesc::T(0), half()).unwrap();
    let phi = durable_fns(1).remove(0);
    let mut engine = PqeEngine::new();
    engine.evaluate(HQuery::new(phi.clone()), &tid).unwrap();
    dir.checkpoint(&engine).unwrap();
    for desc in [TupleDesc::R(1), TupleDesc::T(1)] {
        let delta = engine
            .export_delta(
                &HQuery::new(phi.clone()),
                tid.database(),
                &TupleUpdate::Insert { desc },
            )
            .unwrap();
        dir.log_delta(&delta).unwrap();
        engine.insert_tuple(&mut tid, desc, half()).unwrap();
    }
    (mem, engine, tid, phi)
}

/// A fork of `base`'s file map on a fresh in-memory filesystem: each
/// matrix case corrupts its own copy of the same durable history.
fn fork(base: &MemFs) -> Arc<MemFs> {
    let copy = MemFs::new();
    for (path, bytes) in base.files() {
        copy.install(path, bytes);
    }
    Arc::new(copy)
}

/// One WAL-matrix recovery: corrupt the log with `mutate`, recover, and
/// check the typed outcome. Always asserts totality (no panic, no
/// `Err`), quarantine accounting, that the recovered engine answers the
/// durable φ on the final instance exactly like the uncrashed one, and
/// that a **second** recovery finds a fully repaired directory.
#[allow(clippy::too_many_arguments)]
fn wal_case(
    name: &str,
    base: &MemFs,
    reference: &mut PqeEngine,
    tid: &Tid,
    phi: &BoolFn,
    mutate: impl FnOnce(&mut Vec<u8>),
    expect_applied: u64,
    expect_dropped: u64,
    expect_cut: &str,
) {
    let mem = fork(base);
    let wal_path = PathBuf::from("engine").join(WAL_FILE);
    let mut bytes = mem.read(&wal_path).unwrap();
    mutate(&mut bytes);
    mem.install(wal_path.clone(), bytes);

    let dir = reopen(&mem);
    let before = mem.files();
    let (mut recovered, report) = PqeEngine::recover_with(EngineConfig::default(), &dir).unwrap();
    assert_eq!(
        report.wal_records_applied, expect_applied,
        "{name}: applied"
    );
    assert_eq!(
        report.wal_records_dropped, expect_dropped,
        "{name}: dropped"
    );
    let cut = report
        .wal_cut
        .as_deref()
        .unwrap_or_else(|| panic!("{name}: must cut"));
    assert!(
        cut.contains(expect_cut),
        "{name}: cut reason {cut:?} must mention {expect_cut:?}"
    );
    assert_eq!(
        report.quarantined.len(),
        1,
        "{name}: the log is quarantined"
    );
    assert!(
        report.quarantined[0].original.ends_with(WAL_FILE),
        "{name}: quarantine names the log"
    );
    assert_report_consistent(&recovered, &report, &before, &mem, name);

    let q = HQuery::new(phi.clone());
    assert_eq!(
        recovered.evaluate(&q, tid).unwrap(),
        reference.evaluate(&q, tid).unwrap(),
        "{name}: recovered answers must match the uncrashed engine"
    );

    // The cut log was rewritten to its applied prefix: recovering again
    // finds nothing wrong and replays exactly that prefix.
    let dir2 = reopen(&mem);
    let (_, report2) = PqeEngine::recover_with(EngineConfig::default(), &dir2).unwrap();
    assert!(
        report2.quarantined.is_empty() && report2.wal_cut.is_none(),
        "{name}: the first recovery must leave a trustworthy log"
    );
    assert_eq!(
        report2.wal_records_applied, expect_applied,
        "{name}: stable prefix"
    );
}

/// Every way a WAL record frame can be damaged — torn header, torn
/// payload, checksum rot, absurd length, a frame-valid record whose
/// payload is poison, and one whose operation is illegal — each mapped
/// to its typed cut reason, a quarantined log, and an exact recovery.
#[test]
fn wal_corruption_matrix_quarantines_and_recovers() {
    let (mem, mut reference, tid, phi) = wal_fixture();
    let wal_path = PathBuf::from("engine").join(WAL_FILE);
    let full = mem.read(&wal_path).unwrap();
    let replay = Wal::scan(&full);
    assert_eq!(replay.records.len(), 2, "fixture: two logged deltas");
    let second_off = replay.records[1].offset;

    // Frame-layer variants, pinned on the scanner first.
    let mut torn_header = full.clone();
    torn_header.extend_from_slice(&[0xAB; 4]);
    assert!(matches!(
        Wal::scan(&torn_header).corruption,
        Some(WalCorruption::TornHeader { bytes: 4, .. })
    ));
    wal_case(
        "torn header",
        &mem,
        &mut reference,
        &tid,
        &phi,
        |b| b.extend_from_slice(&[0xAB; 4]),
        2,
        0,
        "torn record header",
    );

    let cut_len = full.len() - 3;
    assert!(matches!(
        Wal::scan(&full[..cut_len]).corruption,
        Some(WalCorruption::TornRecord { .. })
    ));
    wal_case(
        "torn payload",
        &mem,
        &mut reference,
        &tid,
        &phi,
        |b| b.truncate(cut_len),
        1,
        0,
        "torn record payload",
    );

    let mut rotted = full.clone();
    rotted[RECORD_HEADER_LEN] ^= 0x40;
    assert!(matches!(
        Wal::scan(&rotted).corruption,
        Some(WalCorruption::ChecksumMismatch { valid_len: 0, .. })
    ));
    wal_case(
        "payload bit rot in the first record",
        &mem,
        &mut reference,
        &tid,
        &phi,
        |b| b[RECORD_HEADER_LEN] ^= 0x40,
        0,
        0,
        "checksum mismatch",
    );

    wal_case(
        "frame checksum flipped",
        &mem,
        &mut reference,
        &tid,
        &phi,
        |b| b[second_off + 4] ^= 1,
        1,
        0,
        "checksum mismatch",
    );

    let mut huge = full.clone();
    huge[second_off..second_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Wal::scan(&huge).corruption,
        Some(WalCorruption::RecordTooLarge { len: u32::MAX, .. })
    ));
    wal_case(
        "absurd length prefix",
        &mem,
        &mut reference,
        &tid,
        &phi,
        |b| b[second_off..second_off + 4].copy_from_slice(&u32::MAX.to_le_bytes()),
        1,
        0,
        "exceeds",
    );

    // Frame-valid records whose payloads are poison: the frame replays,
    // the apply fails, and the log is cut at that record — records
    // behind it (intact or not) are dropped to preserve order.
    let decode_poison = fork(&mem);
    Wal::with_io(
        wal_path.clone(),
        Arc::clone(&decode_poison) as Arc<dyn StorageIo>,
    )
    .append(b"not a delta blob")
    .unwrap();
    Wal::with_io(
        wal_path.clone(),
        Arc::clone(&decode_poison) as Arc<dyn StorageIo>,
    )
    .append(b"dropped with it")
    .unwrap();
    wal_case(
        "frame-valid payload that fails to decode",
        &decode_poison,
        &mut reference,
        &tid,
        &phi,
        |_| {},
        2,
        2,
        "failed to apply",
    );

    // An operation illegal on its own shape: a well-formed delta
    // inserting a tuple its shape already holds.
    let (donor, donor_tid, donor_phi, _) = delta_fixture();
    let illegal = donor
        .export_delta(
            &HQuery::new(donor_phi),
            donor_tid.database(),
            &TupleUpdate::Insert {
                desc: TupleDesc::R(0),
            },
        )
        .unwrap();
    let apply_poison = fork(&mem);
    Wal::with_io(wal_path, Arc::clone(&apply_poison) as Arc<dyn StorageIo>)
        .append(&illegal)
        .unwrap();
    wal_case(
        "frame-valid operation illegal on its shape",
        &apply_poison,
        &mut reference,
        &tid,
        &phi,
        |_| {},
        2,
        1,
        "failed to apply",
    );
}

/// A directory of pure garbage — every durable file replaced by junk,
/// plus an orphaned temp snapshot — degrades to a documented cold
/// start: three quarantines, the temp deleted, a working engine, and a
/// next checkpoint that restores full health.
#[test]
fn pure_garbage_directory_cold_starts_with_everything_quarantined() {
    let mem = Arc::new(MemFs::new());
    let dir_path = PathBuf::from("engine");
    mem.install(dir_path.join(SNAPSHOT_FILE), b"junk snapshot".to_vec());
    mem.install(dir_path.join(SNAPSHOT_PREV_FILE), vec![0xFF; 64]);
    mem.install(dir_path.join(SNAPSHOT_TMP_FILE), b"orphan".to_vec());
    mem.install(dir_path.join(WAL_FILE), vec![0x13; 9]);

    let dir = reopen(&mem);
    let before = mem.files();
    let (mut engine, report) = PqeEngine::recover_with(EngineConfig::default(), &dir).unwrap();
    assert_eq!(report.snapshot, SnapshotSource::Cold);
    assert!(!report.clean());
    assert_eq!(report.quarantined.len(), 3, "snapshot, previous, and log");
    assert_eq!(report.wal_records_applied, 0);
    assert!(
        mem.read(&dir_path.join(SNAPSHOT_TMP_FILE)).is_err(),
        "an orphaned temp is deleted, not quarantined: it was never the truth"
    );
    assert_report_consistent(&engine, &report, &before, &mem, "garbage dir");
    let rendered = report.to_string();
    assert!(rendered.contains("cold start") && rendered.contains("quarantined"));

    // The survivor works, and its next checkpoint re-establishes a
    // clean directory.
    let mut tid = Tid::new(Database::new(1, DOMAIN), Vec::new()).unwrap();
    tid.insert(TupleDesc::R(0), half()).unwrap();
    tid.insert(TupleDesc::T(0), half()).unwrap();
    let phi = durable_fns(1).remove(0);
    let q = HQuery::new(phi);
    let answer = engine.evaluate(&q, &tid).unwrap();
    assert_eq!(answer, PqeEngine::new().evaluate(&q, &tid).unwrap());
    dir.checkpoint(&engine).unwrap();
    let (_, healed) = PqeEngine::recover_with(EngineConfig::default(), &reopen(&mem)).unwrap();
    assert!(
        healed.clean(),
        "a checkpoint after cold start heals the directory"
    );
    assert!(matches!(healed.snapshot, SnapshotSource::Current { artifacts } if artifacts >= 1));
}

/// A directory written by a version-1 build — a snapshot and a WAL of
/// two delta records whose store blobs all carry version 1 — meets the
/// first format bump (`DESIGN.md` §5): the version is checked before the
/// checksum, so both files are quarantined with a typed reason, nothing
/// replays, and the engine cold-starts and compiles on first use.
#[test]
fn version_1_durable_directory_cold_starts() {
    let mem = Arc::new(MemFs::new());
    let dir = reopen(&mem);
    let mut tid = Tid::new(Database::new(1, DOMAIN), Vec::new()).unwrap();
    tid.insert(TupleDesc::R(0), half()).unwrap();
    tid.insert(TupleDesc::T(0), half()).unwrap();
    let phi = durable_fns(1).remove(0);
    let q = HQuery::new(phi.clone());
    let mut writer = PqeEngine::new();
    writer.evaluate(&q, &tid).unwrap();
    let version_1 = |mut blob: Vec<u8>| {
        blob[8..10].copy_from_slice(&1u16.to_le_bytes());
        blob
    };
    mem.install(
        dir.path().join(SNAPSHOT_FILE),
        version_1(writer.save_cache()),
    );
    let wal = dir.wal();
    wal.reset().unwrap();
    for desc in [TupleDesc::R(1), TupleDesc::T(1)] {
        let delta = writer
            .export_delta(&q, tid.database(), &TupleUpdate::Insert { desc })
            .unwrap();
        wal.append(&version_1(delta)).unwrap();
        writer.insert_tuple(&mut tid, desc, half()).unwrap();
    }

    let before = mem.files();
    let (mut recovered, report) =
        PqeEngine::recover_with(EngineConfig::default(), &reopen(&mem)).unwrap();
    assert_eq!(report.snapshot, SnapshotSource::Cold);
    assert_eq!(report.wal_records_applied, 0);
    assert_eq!(report.wal_records_dropped, 2);
    assert_eq!(report.quarantined.len(), 2, "snapshot and log");
    assert!(report.quarantined[0].original.ends_with(SNAPSHOT_FILE));
    assert!(report.quarantined[1].original.ends_with(WAL_FILE));
    for quarantine in &report.quarantined {
        assert!(
            quarantine.reason.contains("unsupported format version 1"),
            "{}",
            quarantine.reason
        );
    }
    assert_report_consistent(&recovered, &report, &before, &mem, "version-1 dir");

    // A cold engine: nothing cached, the first evaluation compiles and
    // answers like a fresh engine.
    assert_eq!(recovered.cache_len(), 0);
    assert_eq!(
        recovered.evaluate(&q, &tid).unwrap(),
        PqeEngine::new().evaluate(&q, &tid).unwrap()
    );
    assert_eq!(recovered.stats().cache_misses, 1);
    assert_eq!(recovered.stats().artifact_loads, 0);
}

/// A short read of the current snapshot during recovery itself (a
/// concurrently-truncated file, a bad sector): the generation is
/// quarantined and recovery falls back to the retained previous
/// generation — graceful degradation inside the recovery path, not just
/// before it.
#[test]
fn short_snapshot_read_falls_back_to_the_previous_generation() {
    let seed = common::BASE_SEED ^ 0x5B;
    let durable = durable_fns(1);
    let mem = Arc::new(MemFs::new());
    let (mut reference, tid, _) =
        drive(Arc::clone(&mem) as Arc<dyn StorageIo>, seed, 1, &durable).expect("fault-free");
    assert!(
        mem.read(&PathBuf::from("engine").join(SNAPSHOT_PREV_FILE))
            .is_ok(),
        "the workload's second checkpoint retains a previous generation"
    );

    // Operation numbering on the recovery side: 0 = create_dir_all,
    // 1 = the read of snapshot.bin — truncate that one to 10 bytes.
    let faulted = Arc::new(FaultIo::new(
        Arc::clone(&mem) as Arc<dyn StorageIo>,
        FaultPlan {
            short_read: Some((1, 10)),
            ..FaultPlan::default()
        },
    ));
    let dir = DurableDir::open_with("engine", faulted as Arc<dyn StorageIo>).unwrap();
    let (mut recovered, report) = PqeEngine::recover_with(EngineConfig::default(), &dir).unwrap();
    assert!(
        matches!(report.snapshot, SnapshotSource::Previous { .. }),
        "got {:?}",
        report.snapshot
    );
    assert_eq!(report.quarantined.len(), 1);
    assert!(report.quarantined[0].original.ends_with(SNAPSHOT_FILE));
    assert!(!report.clean());
    for phi in &durable {
        let q = HQuery::new(phi.clone());
        assert_eq!(
            recovered.evaluate(&q, &tid).unwrap(),
            reference.evaluate(&q, &tid).unwrap(),
            "previous-generation start must still answer exactly"
        );
    }
}

/// A torn WAL tail makes recovery cut the log: it quarantines the file
/// and rewrites the live log to the records it applied. That rewrite
/// must come from the bytes recovery scanned, not from a second read
/// that can come back short — so a short read at the operation that was
/// once that second read leaves a log the next recovery replays in
/// full.
#[test]
fn short_wal_reread_cannot_shrink_the_applied_prefix() {
    let (mem, _, _, _) = wal_fixture();
    let wal_path = PathBuf::from("engine").join(WAL_FILE);
    let mut bytes = mem.read(&wal_path).unwrap();
    bytes.extend_from_slice(&[0xAB; 3]);
    mem.install(wal_path, bytes);

    // Operation numbering on the recovery side: 0 = create_dir_all,
    // 1 = the read of snapshot.bin, 2 = the read of the log; a recovery
    // that re-read the log before rewriting it did so at 3.
    let faulted = Arc::new(FaultIo::new(
        Arc::clone(&mem) as Arc<dyn StorageIo>,
        FaultPlan {
            short_read: Some((3, 0)),
            ..FaultPlan::default()
        },
    ));
    let dir = DurableDir::open_with("engine", faulted as Arc<dyn StorageIo>).unwrap();
    let (_, first) = PqeEngine::recover_with(EngineConfig::default(), &dir).unwrap();
    assert_eq!(first.wal_records_applied, 2, "both intact records apply");
    assert!(first.wal_cut.is_some(), "the torn tail is cut");

    let (_, second) = PqeEngine::recover_with(EngineConfig::default(), &reopen(&mem)).unwrap();
    assert_eq!(
        second.wal_records_applied, first.wal_records_applied,
        "the rewritten log keeps every record the first recovery applied"
    );
    assert!(second.clean(), "the first recovery left a trustworthy log");
}

/// Cases per property for the byte-flip fuzz below.
fn flip_cases() -> u32 {
    if common::seed_count() > common::DEFAULT_SEEDS {
        48
    } else {
        12
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(flip_cases()))]

    /// Random byte flips anywhere in the durable directory always end in
    /// full recovery or clean quarantine: recovery returns `Ok`, the
    /// engine answers every probe exactly like the uncrashed reference,
    /// corrupt originals are preserved at their quarantine names, and a
    /// second recovery finds nothing left to repair.
    #[test]
    fn random_byte_flips_recover_or_quarantine_cleanly(seed in any::<u64>()) {
        let k = 1 + (seed % 2) as u8;
        let durable = durable_fns(k);
        let mem = Arc::new(MemFs::new());
        let (mut reference, tid, _) =
            drive(Arc::clone(&mem) as Arc<dyn StorageIo>, seed, k, &durable)
                .expect("fault-free");

        // Probe set: the durable φs plus four rotating functions.
        let fns = all_functions(k);
        let mut state = seed ^ 0xF11B;
        let mut probes = durable.clone();
        for _ in 0..4 {
            probes.push(fns[(mix(&mut state) as usize) % fns.len()].clone());
        }
        let expected: Vec<BigRational> = probes
            .iter()
            .map(|phi| reference.evaluate(HQuery::new(phi.clone()), &tid).unwrap())
            .collect();

        // Flip one to four random bits across the surviving files.
        let mut files: Vec<(PathBuf, Vec<u8>)> = mem.files().into_iter().collect();
        files.sort();
        for _ in 0..=(mix(&mut state) % 4) {
            let fi = (mix(&mut state) as usize) % files.len();
            let (path, bytes) = &mut files[fi];
            if bytes.is_empty() {
                continue;
            }
            let bi = (mix(&mut state) as usize) % bytes.len();
            bytes[bi] ^= 1 << (mix(&mut state) % 8);
            mem.install(path.clone(), bytes.clone());
        }

        let dir = reopen(&mem);
        let before = mem.files();
        let (mut recovered, report) =
            PqeEngine::recover_with(EngineConfig::default(), &dir)
                .expect("recovery is total under corruption");
        assert_report_consistent(&recovered, &report, &before, &mem, "byte flips");
        for (phi, want) in probes.iter().zip(&expected) {
            prop_assert_eq!(
                &recovered.evaluate(HQuery::new(phi.clone()), &tid).unwrap(),
                want,
                "recovered answers must match the uncrashed reference"
            );
        }

        // Whatever the first recovery quarantined or truncated, the
        // second finds a directory with nothing left to repair.
        let (mut again, report2) =
            PqeEngine::recover_with(EngineConfig::default(), &reopen(&mem)).unwrap();
        prop_assert!(
            report2.quarantined.is_empty() && report2.wal_cut.is_none(),
            "one recovery repairs the directory: second report was {}", report2
        );
        for (phi, want) in probes.iter().zip(&expected) {
            prop_assert_eq!(
                &again.evaluate(HQuery::new(phi.clone()), &tid).unwrap(),
                want
            );
        }
    }
}
