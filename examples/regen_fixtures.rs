//! Regenerates the golden byte fixtures under `tests/fixtures/`.
//!
//! ```text
//! cargo run --example regen_fixtures            # rewrite tests/fixtures/
//! cargo run --example regen_fixtures -- DIR     # write into DIR instead
//! ```
//!
//! The fixtures pin the version-2 persistence format (`DESIGN.md` §5):
//! CI regenerates them into a scratch directory and fails if the bytes
//! differ from the committed ones (`scripts/check-fixtures.sh`), so any
//! drift in the format *or* in the compiler's deterministic output is
//! caught before it ships. `tests/engine_store.rs` must agree with the
//! `(φ, shape)` pairs below — it recompiles them fresh and asserts
//! byte-identical exports. The `delta_*.intx` fixtures pin the update
//! delta container the live-update API ships (`DESIGN.md` §9).
//!
//! Three more fixtures pin the bytes the store format does not cover,
//! so an encoder and decoder changed the same way cannot slip past the
//! round-trip tests:
//!
//! * `wire_requests.frames`: one wire v3 frame per request opcode
//!   (`0x01`–`0x07`), both query tags (H-query and parsed UCQ) and a
//!   multi-limb rational among them;
//! * `wire_replies.frames`: one frame per response opcode
//!   (`0x81`–`0x87`), then one error frame per error code (1–9);
//! * `wal_deltas.wal`: a write-ahead log holding the two delta
//!   fixtures as records, in publication order.
//!
//! Frame files are the frames back to back, each behind its `u32`
//! length prefix, exactly as they cross a socket.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use intext::boolfn::{phi9, BoolFn};
use intext::core::Region;
use intext::engine::fsio::{RealFs, StorageIo};
use intext::engine::{EngineError, Estimate, PqeEngine, SamplerKind, TupleUpdate, Wal};
use intext::numeric::BigRational;
use intext::query::{HQuery, Query};
use intext::serve::{net, wire, Request, Response, ServeError};
use intext::tid::{complete_database, uniform_tid, Database, Tid, TupleId, Vocabulary};

/// The two pinned cases: one per artifact kind.
///
/// * `degenerate_obdd`: ψ = h₀ ∧ ¬h₂ (ignores h₁, so Proposition 3.7
///   compiles a reduced OBDD) on the complete k = 2, domain-2 instance.
/// * `zero_euler_dd`: φ9 (nondegenerate, e(φ9) = 0, so Theorem 5.2
///   compiles a d-D: its template over seven leaf OBDDs) on the
///   complete k = 3, domain-2 instance.
fn fixtures() -> Vec<(&'static str, BoolFn, Database)> {
    let psi = &BoolFn::var(3, 0) & &!&BoolFn::var(3, 2);
    vec![
        ("degenerate_obdd.intx", psi, complete_database(2, 2)),
        ("zero_euler_dd.intx", phi9(), complete_database(3, 2)),
    ]
}

fn main() {
    let out: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/fixtures".into())
        .into();
    std::fs::create_dir_all(&out).expect("fixture directory is creatable");
    for (name, phi, db) in fixtures() {
        let q = HQuery::new(phi);
        let tid = uniform_tid(db, BigRational::from_ratio(1, 2));
        let mut engine = PqeEngine::new();
        engine
            .evaluate(&q, &tid)
            .expect("fixture queries are cacheable by construction");
        let blob = engine
            .export_artifact(&q, tid.database())
            .expect("just compiled, so cached");
        let path = out.join(name);
        std::fs::write(&path, &blob).expect("fixture file is writable");
        println!("wrote {} ({} bytes)", path.display(), blob.len());
    }

    // Delta fixtures pin the `KIND_DELTA` wire format (DESIGN.md §9):
    // a remove of tuple 0 from the degenerate-OBDD shape, and the
    // insert that restores it. Exported against the database each delta
    // *applies to*, exactly as a live publisher would ship them.
    let (_, psi, db) = fixtures().swap_remove(0);
    let q = HQuery::new(psi);
    let mut tid = uniform_tid(db, BigRational::from_ratio(1, 2));
    let mut engine = PqeEngine::new();
    engine.evaluate(&q, &tid).expect("cacheable");
    let remove = TupleUpdate::Remove { id: 0 };
    let blob = engine
        .export_delta(&q, tid.database(), &remove)
        .expect("cached, so exportable");
    let path = out.join("delta_remove.intx");
    std::fs::write(&path, &blob).expect("fixture file is writable");
    println!("wrote {} ({} bytes)", path.display(), blob.len());

    let (desc, _) = engine
        .remove_tuple(&mut tid, TupleId(0))
        .expect("tuple 0 exists");
    let insert = TupleUpdate::Insert { desc };
    let blob = engine
        .export_delta(&q, tid.database(), &insert)
        .expect("still cached after the patch");
    let path = out.join("delta_insert.intx");
    std::fs::write(&path, &blob).expect("fixture file is writable");
    println!("wrote {} ({} bytes)", path.display(), blob.len());

    let requests: Vec<Vec<u8>> = wire_requests()
        .iter()
        .zip(0u64..)
        .map(|(req, i)| wire::encode_request(FRAME_ID + i, req))
        .collect();
    write_frames(&out.join("wire_requests.frames"), &requests);
    let replies: Vec<Vec<u8>> = wire_replies()
        .iter()
        .zip(0u64..)
        .map(|(reply, i)| match reply {
            Ok(resp) => wire::encode_response(FRAME_ID + i, resp),
            Err(err) => wire::encode_error(FRAME_ID + i, err),
        })
        .collect();
    write_frames(&out.join("wire_replies.frames"), &replies);

    // The WAL fixture: both delta fixtures, logged as a live publisher
    // logs them before applying each update.
    let path = out.join("wal_deltas.wal");
    let wal = Wal::with_io(&path, Arc::new(RealFs) as Arc<dyn StorageIo>);
    wal.reset().expect("WAL fixture is writable");
    for name in ["delta_remove.intx", "delta_insert.intx"] {
        let delta = std::fs::read(out.join(name)).expect("delta fixture was just written");
        wal.append(&delta).expect("WAL fixture is writable");
    }
    let len = std::fs::metadata(&path).expect("WAL fixture exists").len();
    println!("wrote {} ({len} bytes)", path.display());
}

/// First request id of each frame fixture; frame `i` carries id
/// `FRAME_ID + i`, so every id byte is pinned with a distinct value.
const FRAME_ID: u64 = 0x0102_0304_0506_0700;

/// One request per opcode, `0x01` through `0x07`. The query slots
/// alternate between an H-query (tag `0`) and a parsed UCQ (tag `1`),
/// and the H-query's instance carries a multi-limb probability.
fn wire_requests() -> Vec<Request> {
    let h = Query::from(HQuery::new(phi9()));
    let voc = Vocabulary::new(vec!["Author".into(), "Cited".into()], vec!["Wrote".into()])
        .expect("distinct names");
    let ucq = Query::parse("Author(x), Wrote(x,y), Cited(y)", &voc).expect("valid UCQ text");
    let mut h_tid = uniform_tid(complete_database(3, 1), BigRational::from_ratio(1, 3));
    h_tid
        .set_prob(TupleId(0), multi_limb())
        .expect("a probability in [0, 1]");
    let ucq_tid: Tid = uniform_tid(complete_database(1, 2), BigRational::from_ratio(3, 4));
    vec![
        Request::Evaluate {
            q: h.clone(),
            tid: h_tid.clone(),
        },
        Request::EvaluateF64 {
            q: ucq.clone(),
            tid: ucq_tid.clone(),
        },
        Request::Estimate {
            q: h.clone(),
            tid: h_tid.clone(),
        },
        Request::Batch {
            q: ucq,
            tids: vec![ucq_tid.clone(), ucq_tid],
        },
        Request::BatchF64 {
            q: h,
            tids: vec![h_tid],
            shards: 3,
        },
        Request::Snapshot,
        Request::Ping,
    ]
}

/// One response per opcode, `0x81` through `0x87`, then one typed
/// rejection per error code, 1 through 9.
fn wire_replies() -> Vec<Result<Response, ServeError>> {
    vec![
        Ok(Response::Exact(multi_limb())),
        Ok(Response::F64(0.1 + 0.2)),
        Ok(Response::Estimate(Estimate {
            value: 0.123_456_789,
            eps: 0.05,
            delta: 1e-3,
            samples: 738,
            elapsed: Duration::from_nanos(98_765),
            sampler: Some(SamplerKind::KarpLuby),
            deadline_hit: true,
        })),
        Ok(Response::Batch(vec![
            multi_limb(),
            BigRational::zero(),
            BigRational::from_ratio(-1, 3),
        ])),
        Ok(Response::BatchF64(vec![f64::MIN_POSITIVE, 1.0])),
        Ok(Response::Snapshot(b"INTXSTOR snapshot bytes".to_vec())),
        Ok(Response::Pong),
        Err(ServeError::QueueFull { capacity: 128 }),
        Err(ServeError::DeadlineExceeded {
            late_by: Duration::from_micros(1_500),
        }),
        Err(ServeError::BudgetExceeded {
            scenarios: 100,
            budget: 10,
        }),
        Err(ServeError::Cancelled),
        Err(ServeError::Closed),
        Err(ServeError::WorkerPanicked),
        Err(ServeError::Engine(EngineError::VocabularyMismatch {
            query_k: 2,
            database_k: 3,
        })),
        Err(ServeError::Engine(EngineError::Intractable {
            region: Region::HardMonotone,
            tuples: 99,
            budget: 20,
        })),
        Err(ServeError::Engine(EngineError::GroundingTooLarge {
            tuples: 4_096,
            budget: 64,
        })),
    ]
}

/// A probability whose numerator and denominator each need two `u32`
/// limbs on the wire.
fn multi_limb() -> BigRational {
    BigRational::from_ratio(4_294_967_311, 8_589_934_609)
}

/// Writes `payloads` to `path` as back-to-back length-prefixed frames.
fn write_frames(path: &Path, payloads: &[Vec<u8>]) {
    let mut bytes = Vec::new();
    for payload in payloads {
        net::write_frame(&mut bytes, payload).expect("fixture frames fit the frame bound");
    }
    std::fs::write(path, &bytes).expect("fixture file is writable");
    println!(
        "wrote {} ({} frames, {} bytes)",
        path.display(),
        payloads.len(),
        bytes.len()
    );
}
