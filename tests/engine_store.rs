//! The persistent circuit store, end to end (`DESIGN.md` §5):
//!
//! * the committed golden fixtures under `tests/fixtures/` load, and a
//!   fresh compile of the same `(φ, shape)` exports **byte-identical**
//!   blobs — the in-test format drift detector, mirrored by
//!   `scripts/check-fixtures.sh` in CI,
//! * round-trip identity for **all** 272 functions with `k ≤ 2`:
//!   serialize → deserialize → evaluate is bit-identical to the freshly
//!   compiled artifact,
//! * a `load_cache`-warmed replica replays the saved workload with zero
//!   compiles (`misses == 0`, `loads == shapes`),
//! * malformed input of every flavor returns a typed `StoreError`
//!   through the public API, and arbitrary byte mutations never panic
//!   the loader (the byte-level corruption matrix lives with the codec
//!   in `crates/engine/src/store.rs`),
//! * the committed wire v3 frames and WAL log decode and re-encode to
//!   the committed bytes, so the formats that share the store's byte
//!   codec are pinned too.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use intext::boolfn::{phi9, BoolFn};
use intext::engine::fsio::{MemFs, StorageIo};
use intext::engine::{EngineConfig, Plan, PqeEngine, StoreError, Wal, FORMAT_VERSION, MAGIC};
use intext::numeric::BigRational;
use intext::query::HQuery;
use intext::serve::{net, wire};
use intext::tid::{complete_database, random_tid, uniform_tid, Database, TupleId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn half() -> BigRational {
    BigRational::from_ratio(1, 2)
}

/// The `(name, φ, shape)` triples the golden fixtures pin — must match
/// `examples/regen_fixtures.rs` exactly.
fn fixture_cases() -> Vec<(&'static str, BoolFn, Database)> {
    let psi = &BoolFn::var(3, 0) & &!&BoolFn::var(3, 2);
    vec![
        ("degenerate_obdd.intx", psi, complete_database(2, 2)),
        ("zero_euler_dd.intx", phi9(), complete_database(3, 2)),
    ]
}

fn fixture_bytes(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {path} must be committed: {e}"))
}

/// Golden fixtures: the committed bytes load into a cold engine, the
/// loaded artifact answers bit-identically to a fresh compile on
/// randomized probabilities, and a fresh compile *exports the committed
/// bytes back* — so any format or compiler drift fails here.
#[test]
fn golden_fixtures_load_and_pin_the_format() {
    let mut rng = StdRng::seed_from_u64(0x601d);
    for (name, phi, db) in fixture_cases() {
        let committed = fixture_bytes(name);
        let q = HQuery::new(phi);

        // Fresh compile exports byte-identical blobs (drift detector).
        let mut compiler = PqeEngine::new();
        let tid = uniform_tid(db.clone(), half());
        compiler.evaluate(&q, &tid).unwrap();
        let fresh = compiler.export_artifact(&q, &db).unwrap();
        assert_eq!(
            fresh, committed,
            "{name}: regenerated bytes differ from the committed fixture \
             (format drift — see DESIGN.md §5 for the evolution policy)"
        );

        // The committed bytes warm a cold replica: zero compiles, and
        // bit-identical probabilities under arbitrary re-weightings.
        let mut replica = PqeEngine::new();
        let report = replica.import_artifact(&committed).unwrap();
        assert_eq!(report.artifacts, 1);
        assert!(report.gates > 0);
        for _ in 0..3 {
            let scenario = random_tid(db.clone(), 97, &mut rng);
            assert_eq!(
                replica.evaluate(&q, &scenario).unwrap(),
                compiler.evaluate(&q, &scenario).unwrap(),
                "{name}: loaded artifact must answer bit-identically"
            );
        }
        assert_eq!(replica.stats().cache_misses, 0, "{name}: no recompiles");
        assert_eq!(replica.stats().artifact_loads, 1);
        assert_eq!(replica.stats().cache_hits, 3);
    }
}

/// The committed `delta_*.intx` fixtures are not just pinned bytes:
/// applied in publication order to a fixture-warmed replica, they keep
/// it answering bit-identically to a live engine mirroring the same
/// updates through `remove_tuple` / `insert_tuple`. The first delta
/// lands on a deserialized artifact — no unroll trace, so it takes the
/// documented full-compile fallback; that compile records a trace, so
/// the second delta patches in place.
#[test]
fn delta_fixtures_apply_to_a_warm_replica() {
    let (_, psi, db) = fixture_cases().swap_remove(0);
    let q = HQuery::new(psi);
    let mut tid = uniform_tid(db, half());
    let mut live = PqeEngine::new();
    live.evaluate(&q, &tid).unwrap();

    let mut replica = PqeEngine::new();
    replica
        .import_artifact(&fixture_bytes("degenerate_obdd.intx"))
        .unwrap();

    // delta_remove.intx: tuple 0 leaves the shape.
    let report = replica
        .apply_delta(&fixture_bytes("delta_remove.intx"))
        .unwrap();
    assert_eq!(
        report.artifacts, 1,
        "one cached artifact brought up to date"
    );
    assert_eq!(
        replica.stats().patches_applied,
        0,
        "deserialized artifacts carry no trace — this one full-compiled"
    );
    let (desc, _) = live.remove_tuple(&mut tid, TupleId(0)).unwrap();
    assert_eq!(
        replica.evaluate(&q, &tid).unwrap(),
        live.evaluate(&q, &tid).unwrap(),
        "replica after delta_remove ≡ live engine after remove_tuple"
    );

    // delta_insert.intx: the same tuple returns (at the next dense id,
    // so the shape is the post-round-trip one, not the original).
    let report = replica
        .apply_delta(&fixture_bytes("delta_insert.intx"))
        .unwrap();
    assert_eq!(report.artifacts, 1);
    live.insert_tuple(&mut tid, desc, half()).unwrap();
    assert_eq!(
        replica.evaluate(&q, &tid).unwrap(),
        live.evaluate(&q, &tid).unwrap(),
        "replica after delta_insert ≡ live engine after insert_tuple"
    );

    let stats = replica.stats();
    assert_eq!(stats.cache_misses, 0, "evaluations all hit the cache");
    assert_eq!(
        stats.patches_applied, 1,
        "the second delta patched the traced artifact in place"
    );
}

/// The payloads of a committed frame-stream fixture, in order — read
/// back through the same frame reader the server uses.
fn fixture_frames(name: &str) -> Vec<Vec<u8>> {
    let bytes = fixture_bytes(name);
    let mut stream = bytes.as_slice();
    let mut frames = Vec::new();
    while let Some(frame) = net::read_frame(&mut stream).unwrap() {
        frames.push(frame);
    }
    frames
}

/// `payloads` as back-to-back length-prefixed frames.
fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for payload in payloads {
        net::write_frame(&mut bytes, payload).unwrap();
    }
    bytes
}

/// Golden wire fixtures: every committed request and reply frame
/// decodes, and re-encoding the decoded value reproduces the committed
/// bytes — a layout change made the same way in an encoder and its
/// decoder fails here, where a round trip alone could not see it.
#[test]
fn wire_fixtures_decode_and_reencode_byte_identically() {
    let requests = fixture_frames("wire_requests.frames");
    let mut reencoded = Vec::new();
    for frame in &requests {
        let (id, request) = wire::decode_request(frame).unwrap();
        reencoded.push(wire::encode_request(id, &request));
    }
    assert_eq!(framed(&reencoded), fixture_bytes("wire_requests.frames"));
    let opcodes: Vec<u8> = requests.iter().map(|frame| frame[0]).collect();
    assert_eq!(opcodes, (0x01..=0x07).collect::<Vec<u8>>());
    // Byte 9 (after the opcode and the 8-byte id) is the query tag of
    // the five query-carrying requests: both tags are pinned.
    let tags: Vec<u8> = requests[..5].iter().map(|frame| frame[9]).collect();
    assert_eq!(tags, [0, 1, 0, 1, 0]);

    let replies = fixture_frames("wire_replies.frames");
    let mut reencoded = Vec::new();
    for frame in &replies {
        let (id, reply) = wire::decode_reply(frame).unwrap();
        reencoded.push(match &reply {
            Ok(response) => wire::encode_response(id, response),
            Err(err) => wire::encode_error(id, err),
        });
    }
    assert_eq!(framed(&reencoded), fixture_bytes("wire_replies.frames"));
    let opcodes: Vec<u8> = replies.iter().map(|frame| frame[0]).collect();
    let mut expected: Vec<u8> = (0x81..=0x87).collect();
    expected.extend([0xEE; 9]);
    assert_eq!(opcodes, expected);
    let codes: Vec<u8> = replies[7..].iter().map(|frame| frame[9]).collect();
    assert_eq!(codes, (1..=9).collect::<Vec<u8>>());
}

/// Golden WAL fixture: the committed log replays cleanly to the two
/// delta fixtures, and appending those deltas to an empty log writes
/// the committed bytes back.
#[test]
fn wal_fixture_replays_and_reappends_byte_identically() {
    let log = fixture_bytes("wal_deltas.wal");
    let replay = Wal::scan(&log);
    assert_eq!(replay.corruption, None);
    let payloads: Vec<Vec<u8>> = replay.records.into_iter().map(|r| r.payload).collect();
    assert_eq!(
        payloads,
        [
            fixture_bytes("delta_remove.intx"),
            fixture_bytes("delta_insert.intx")
        ]
    );
    let mem = Arc::new(MemFs::new());
    let wal = Wal::with_io("wal.log", mem.clone() as Arc<dyn StorageIo>);
    for payload in &payloads {
        wal.append(payload).unwrap();
    }
    assert_eq!(mem.read(Path::new("wal.log")).unwrap(), log);
}

/// Acceptance criterion: for all 272 functions with `k ≤ 2`, serialize →
/// deserialize → evaluate is bit-identical to the freshly compiled
/// artifact (on randomized probabilities), and re-export reproduces the
/// exact bytes (the encoding is canonical).
#[test]
fn round_trip_identity_all_272_functions_k_le_2() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut total = 0u32;
    let mut cacheable = 0u32;
    for k in 1..=2u8 {
        let n = k + 1;
        for table in 0..(1u64 << (1u32 << n)) {
            total += 1;
            let phi = BoolFn::from_table_u64(n, table);
            let q = HQuery::new(phi);
            let tid = random_tid(complete_database(k, 2), 11, &mut rng);
            let mut compiler = PqeEngine::new();
            let plan = compiler.plan(&q, &tid).expect("k <= 2 instances are small");
            if !plan.is_cacheable() {
                // Brute-force plans produce no artifact;
                // there is nothing to persist (and nothing the cache
                // would ever look up).
                assert!(matches!(plan, Plan::BruteForce));
                continue;
            }
            cacheable += 1;
            let expected = compiler.evaluate(&q, &tid).unwrap();
            let blob = compiler.export_artifact(&q, tid.database()).unwrap();

            let mut replica = PqeEngine::new();
            let report = replica.import_artifact(&blob).unwrap();
            assert_eq!(report.artifacts, 1, "k={k} table={table:#x}");
            assert_eq!(
                replica.evaluate(&q, &tid).unwrap(),
                expected,
                "k={k} table={table:#x}: round-tripped artifact must be bit-identical"
            );
            assert_eq!(replica.stats().cache_misses, 0, "k={k} table={table:#x}");
            assert_eq!(
                replica.export_artifact(&q, tid.database()).unwrap(),
                blob,
                "k={k} table={table:#x}: canonical encoding"
            );
        }
    }
    assert_eq!(total, 272, "16 functions at k=1 plus 256 at k=2");
    // The cacheable side of Figure 1 at these sizes: every degenerate φ
    // (OBDD route) plus every nondegenerate zero-Euler φ (d-D route).
    // The count is a pure function of the classify map, so it is pinned
    // exactly — a change here means the routing itself changed.
    assert_eq!(
        cacheable, 76,
        "degenerate ∪ zero-Euler functions with k ≤ 2"
    );
}

/// Acceptance criterion: a `load_cache`-warmed engine replays the saved
/// workload with `misses == 0` and `loads == shapes`.
#[test]
fn load_cache_warm_start_replays_with_zero_compiles() {
    let mut rng = StdRng::seed_from_u64(7);
    // A mixed workload: the d-D φ9 on two shapes, a degenerate OBDD
    // query on a third — three distinct artifacts, several re-weighted
    // scenarios each.
    let q9 = HQuery::new(phi9());
    let qdeg = HQuery::new(&BoolFn::var(3, 0) & &!&BoolFn::var(3, 2));
    let workload: Vec<(HQuery, Database)> = vec![
        (q9.clone(), complete_database(3, 1)),
        (q9.clone(), complete_database(3, 2)),
        (qdeg.clone(), complete_database(2, 3)),
    ];
    let shapes = workload.len();
    let scenarios: Vec<usize> = (0..shapes).flat_map(|i| [i; 4]).collect();

    let mut primary = PqeEngine::new();
    let mut tids = Vec::new();
    let mut expected = Vec::new();
    for &i in &scenarios {
        let (q, db) = &workload[i];
        let tid = random_tid(db.clone(), 13, &mut rng);
        expected.push(primary.evaluate(q, &tid).unwrap());
        tids.push(tid);
    }
    assert_eq!(primary.stats().cache_misses, shapes as u64);
    assert_eq!(primary.cache_len(), shapes);

    let snapshot = primary.save_cache();
    // Snapshots are deterministic: saving again yields the same bytes.
    assert_eq!(primary.save_cache(), snapshot);

    let mut replica = PqeEngine::new();
    let report = replica.load_cache(&snapshot).unwrap();
    assert_eq!(report.artifacts, shapes);
    assert_eq!(report.gates, primary.cache_gates());
    assert_eq!(report.evictions, 0);
    assert_eq!(replica.cache_len(), shapes);
    assert_eq!(replica.cache_gates(), primary.cache_gates());

    for ((&i, tid), expect) in scenarios.iter().zip(&tids).zip(&expected) {
        let (q, _) = &workload[i];
        assert_eq!(&replica.evaluate(q, tid).unwrap(), expect);
    }
    let stats = replica.stats();
    assert_eq!(stats.cache_misses, 0, "zero compiles on the warm replica");
    assert_eq!(stats.artifact_loads, shapes as u64, "loads == shapes");
    assert_eq!(stats.cache_hits, scenarios.len() as u64);
    assert_eq!(stats.queries, scenarios.len() as u64);
}

/// Loaded artifacts go through the normal LRU admission: the gate
/// budget still binds, evictions are counted, and an artifact larger
/// than the whole budget is not retained — the invariant
/// `cache_gates() <= budget` survives warm starts.
#[test]
fn load_respects_the_gate_budget() {
    let q = HQuery::new(phi9());
    let db = complete_database(3, 1);
    let tid = uniform_tid(db.clone(), half());
    let mut primary = PqeEngine::new();
    primary.evaluate(&q, &tid).unwrap();
    let gates = primary.cache_gates();
    let blob = primary.export_artifact(&q, &db).unwrap();
    let snapshot = primary.save_cache();

    // Budget below the artifact: used-but-not-retained, one eviction.
    let mut tight = PqeEngine::with_config(EngineConfig {
        cache_gate_budget: Some(gates - 1),
        ..EngineConfig::default()
    });
    let report = tight.import_artifact(&blob).unwrap();
    assert_eq!(report.artifacts, 1);
    assert_eq!(report.evictions, 1);
    assert_eq!(tight.cache_len(), 0, "oversized artifact is not retained");
    assert_eq!(tight.stats().artifact_loads, 1);

    // Budget exactly fitting: retained, no eviction — including via the
    // bundle path.
    let mut fitting = PqeEngine::with_config(EngineConfig {
        cache_gate_budget: Some(gates),
        ..EngineConfig::default()
    });
    let report = fitting.load_cache(&snapshot).unwrap();
    assert_eq!(report.evictions, 0);
    assert_eq!(fitting.cache_gates(), gates);
}

/// Header-level corruption through the public API: each field flip maps
/// to its specific typed error, and export on a cold key is a typed
/// error too. (The exhaustive body-level matrix is a unit test next to
/// the codec.)
#[test]
fn malformed_inputs_are_typed_errors() {
    let q = HQuery::new(phi9());
    let db = complete_database(3, 1);
    let mut engine = PqeEngine::new();

    // Nothing cached yet: export is an error, not a panic.
    assert_eq!(engine.export_artifact(&q, &db), Err(StoreError::NotCached));

    engine
        .evaluate(&q, &uniform_tid(db.clone(), half()))
        .unwrap();
    let blob = engine.export_artifact(&q, &db).unwrap();
    assert_eq!(&blob[..8], MAGIC.as_slice());
    assert_eq!(
        u16::from_le_bytes([blob[8], blob[9]]),
        FORMAT_VERSION,
        "blobs carry the advertised version"
    );

    let mut cold = PqeEngine::new();

    let mut bad = blob.clone();
    bad[0] = b'X';
    assert_eq!(cold.import_artifact(&bad), Err(StoreError::BadMagic));

    let mut bad = blob.clone();
    bad[8] = 0xff;
    bad[9] = 0xff;
    assert_eq!(
        cold.import_artifact(&bad),
        Err(StoreError::UnsupportedVersion(0xffff))
    );

    let mut bad = blob.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    assert!(matches!(
        cold.import_artifact(&bad),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    assert_eq!(cold.import_artifact(&blob[..7]), Err(StoreError::Truncated));

    // A bundle is not an artifact and vice versa.
    let bundle = engine.save_cache();
    assert!(matches!(
        cold.import_artifact(&bundle),
        Err(StoreError::WrongContainer { .. })
    ));
    assert!(matches!(
        cold.load_cache(&blob),
        Err(StoreError::WrongContainer { .. })
    ));

    // And after all those rejections the cold engine is truly untouched.
    assert_eq!(cold.cache_len(), 0);
    assert_eq!(cold.stats().artifact_loads, 0);

    // The intact blob still imports fine.
    assert!(cold.import_artifact(&blob).is_ok());
}

/// One valid artifact blob and one bundle, compiled once for the fuzz
/// property below.
fn fuzz_corpus() -> &'static (Vec<u8>, Vec<u8>) {
    static CORPUS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let q = HQuery::new(phi9());
        let db = complete_database(3, 1);
        let mut engine = PqeEngine::new();
        engine
            .evaluate(&q, &uniform_tid(db.clone(), half()))
            .unwrap();
        let blob = engine.export_artifact(&q, &db).unwrap();
        let bundle = engine.save_cache();
        (blob, bundle)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    /// Totality under fire: arbitrary byte mutations and truncations of
    /// valid blobs (and feeding either container to either entry point)
    /// return `Result`s — the loader never panics.
    #[test]
    fn mutated_blobs_never_panic(
        pos in 0usize..usize::MAX,
        xor in 1u8..=255,
        pos2 in 0usize..usize::MAX,
        cut in 0usize..usize::MAX,
    ) {
        let (blob, bundle) = fuzz_corpus();
        for original in [blob, bundle] {
            let mut bytes = original.clone();
            bytes[pos % original.len()] ^= xor;
            bytes[pos2 % original.len()] ^= xor.rotate_left(3);
            let truncated = &bytes[..cut % (bytes.len() + 1)];
            let mut engine = PqeEngine::new();
            let _ = engine.import_artifact(&bytes);
            let _ = engine.import_artifact(truncated);
            let _ = engine.load_cache(&bytes);
            let _ = engine.load_cache(truncated);
        }
    }
}
