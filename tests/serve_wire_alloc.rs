//! The wire decoder's memory bound, asserted for real with a recording
//! global allocator:
//!
//! - a hostile frame whose list count claims far more items than its
//!   bytes could hold makes the decoder reserve no single allocation
//!   larger than twice the frame's payload before the decode fails with
//!   a typed `WireError`. A count is checked against only a few bytes
//!   per item, while a decoded item (`Tid`, `BigRational`) takes tens or
//!   hundreds of bytes, so a reserve sized by the count alone would
//!   multiply the frame size by that ratio;
//! - the heap a decoded TID holds does not grow with its vocabulary `k`,
//!   which the frame names in one byte before any tuple arrives;
//! - decoding a hot-read-size request of one-digit probabilities makes
//!   a few dozen allocations, not several per tuple.
//!
//! This file holds exactly one `#[test]` on purpose: the recorder is
//! process-global, and a sibling test allocating on another harness
//! thread would show up as a false positive.

// The recording allocator is the one place the workspace needs `unsafe`:
// `GlobalAlloc` is an unsafe trait by definition. Every method delegates
// straight to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use intext::boolfn::phi9;
use intext::numeric::BigRational;
use intext::query::{HQuery, Query};
use intext::serve::wire::{decode_reply, decode_request, encode_request, encode_response};
use intext::serve::{Request, Response};
use intext::tid::{random_database, random_tid, uniform_tid, Database, DbGenConfig};
use rand::{rngs::StdRng, SeedableRng};

/// The largest single allocation (or reallocation target) since the
/// last [`reset_largest`].
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Allocations and reallocations made so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct RecordingAllocator;

fn record(size: usize) {
    LARGEST.fetch_max(size, Ordering::Relaxed);
    LIVE.fetch_add(size, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for RecordingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: RecordingAllocator = RecordingAllocator;

fn reset_largest() {
    LARGEST.store(0, Ordering::Relaxed);
}

fn largest() -> usize {
    LARGEST.load(Ordering::Relaxed)
}

/// Hostile frame size: about 1 MiB of payload.
const FILLER: usize = 1 << 20;

/// `frame` with its trailing `u32` list count replaced by `count` and
/// `FILLER` bytes of `fill` appended — bytes that make the first claimed
/// item fail to decode.
fn hostile(mut frame: Vec<u8>, count: usize, fill: u8) -> Vec<u8> {
    let at = frame.len() - 4;
    assert_eq!(frame[at..], [0; 4], "the frame must end in an empty list");
    frame[at..].copy_from_slice(&u32::try_from(count).unwrap().to_le_bytes());
    frame.resize(frame.len() + FILLER, fill);
    frame
}

/// The live heap bytes `decode` leaves allocated, with its result held.
fn live_bytes_held<T>(decode: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    let held = decode();
    (LIVE.load(Ordering::Relaxed) - before, held)
}

#[test]
fn hostile_list_counts_reserve_no_more_than_their_payload() {
    let q = Query::from(HQuery::new(phi9()));
    let empty_tid = uniform_tid(Database::new(3, 1), BigRational::from_ratio(1, 2));
    // Each frame ends in an empty list, whose count the hostile copy
    // inflates: one TID per byte (a TID's checked minimum), `remaining /
    // 6` tuples (a tuple's checked minimum), and one rational per byte.
    // A zero `k` byte is an invalid TID; a 0xff tag an invalid tuple;
    // a 0xff sign byte followed by a huge limb count a truncated
    // rational.
    let batch = encode_request(
        1,
        &Request::Batch {
            q: q.clone(),
            tids: Vec::new(),
        },
    );
    let batch_f64 = encode_request(
        2,
        &Request::BatchF64 {
            q: q.clone(),
            tids: Vec::new(),
            shards: 2,
        },
    );
    let evaluate = encode_request(3, &Request::Evaluate { q, tid: empty_tid });
    let batch_reply = encode_response(4, &Response::Batch(Vec::new()));
    // (what, payload, decoded as a reply)
    let cases = [
        ("Batch", hostile(batch, FILLER, 0), false),
        ("BatchF64", hostile(batch_f64, FILLER, 0), false),
        ("Evaluate", hostile(evaluate, FILLER / 6, 0xff), false),
        ("Batch reply", hostile(batch_reply, FILLER, 0xff), true),
    ];
    for (what, payload, reply) in &cases {
        reset_largest();
        let failed = if *reply {
            decode_reply(payload).is_err()
        } else {
            decode_request(payload).is_err()
        };
        let peak = largest();
        assert!(failed, "{what}: a hostile frame must not decode");
        assert!(
            peak <= 2 * payload.len(),
            "{what}: one allocation of {peak} bytes for a {}-byte payload",
            payload.len()
        );
    }

    // A batch of 1,000 empty TIDs (9 bytes each) holds the same heap at
    // k = 255 as at k = 1: the vocabulary allocates nothing per relation.
    let empty_batch = |k: u8| {
        let tid = uniform_tid(Database::new(k, 1), BigRational::from_ratio(1, 2));
        let q = Query::from(HQuery::new(phi9()));
        encode_request(
            5,
            &Request::Batch {
                q,
                tids: vec![tid; 1000],
            },
        )
    };
    let (wide, narrow) = (empty_batch(255), empty_batch(1));
    let (held_wide, decoded) = live_bytes_held(|| decode_request(&wide).unwrap());
    drop(decoded);
    let (held_narrow, decoded) = live_bytes_held(|| decode_request(&narrow).unwrap());
    drop(decoded);
    assert!(
        held_wide <= held_narrow,
        "{}-byte batch of empty TIDs: {held_wide} live bytes at k = 255, {held_narrow} at k = 1",
        wide.len()
    );

    // An `EvaluateF64` on a hot-read-size TID (k = 3, domain 8, density
    // 0.8, denominators up to 10: about 170 tuples) decodes in a few
    // dozen allocations — the query, the tuple list and the maps' growth,
    // none per probability.
    let mut rng = StdRng::seed_from_u64(24);
    let cfg = DbGenConfig {
        k: 3,
        domain_size: 8,
        density: 0.8,
        prob_denominator: 10,
    };
    let tid = random_tid(random_database(&cfg, &mut rng), 10, &mut rng);
    let tuples = tid.database().len();
    let q = Query::from(HQuery::new(phi9()));
    let request = encode_request(6, &Request::EvaluateF64 { q, tid });
    let before = CALLS.load(Ordering::Relaxed);
    let decoded = decode_request(&request).unwrap();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    drop(decoded);
    assert!(
        calls <= 64,
        "decoding a {tuples}-tuple request made {calls} allocations"
    );
}
