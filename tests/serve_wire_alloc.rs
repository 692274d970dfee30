//! The wire decoder's memory bound, asserted for real: a recording
//! global allocator measures that a hostile frame whose list count
//! claims far more items than its bytes could hold makes the decoder
//! reserve no single allocation larger than twice the frame's payload
//! before the decode fails with a typed `WireError`. A count is
//! checked against only a few bytes per item, while a decoded item
//! (`Tid`, `BigRational`) takes tens or hundreds of bytes, so a reserve
//! sized by the count alone would multiply the frame size by that ratio.
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
use intext::tid::{uniform_tid, Database};

/// The largest single allocation (or reallocation target) since the
/// last [`reset_largest`].
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct RecordingAllocator;

unsafe impl GlobalAlloc for RecordingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
}
