//! The engine lane path's zero-allocation claim, asserted for real: a
//! counting global allocator measures that steady-state
//! [`PreparedQuery::eval_run_f64`] calls — each block's probability
//! reads, the artifact's lane walk, and one stats record per scenario —
//! perform **zero** heap allocations once the [`LaneScratch`] and the
//! output `Vec` have grown to the run. The circuit- and artifact-level
//! walks have their own checks (`crates/circuits/tests/kernel_alloc.rs`,
//! `crates/core/tests/artifact_alloc.rs`); this one covers what the
//! engine adds on top of them.
//!
//! This file holds exactly one `#[test]` on purpose: the allocation
//! counter is process-global, and a sibling test allocating on another
//! harness thread would show up as a false positive.

// The counting allocator is the one place the workspace needs `unsafe`:
// `GlobalAlloc` is an unsafe trait by definition. Every method delegates
// straight to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use intext::boolfn::{phi9, BoolFn};
use intext::circuits::LANES;
use intext::engine::{EngineStats, LaneScratch, Plan, PqeEngine, PreparedQuery};
use intext::numeric::BigRational;
use intext::query::HQuery;
use intext::tid::{complete_database, uniform_tid, Tid, TupleId};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_engine_lane_runs_do_not_allocate() {
    // Two full lane blocks and a ragged one. Probabilities have small
    // numerators and denominators, so each `prob_f64` read converts
    // without touching the heap.
    let base = uniform_tid(complete_database(3, 3), BigRational::from_ratio(1, 2));
    let tids: Vec<Tid> = (0..2 * LANES as u64 + 3)
        .map(|s| {
            let mut tid = base.clone();
            tid.set_prob(TupleId((s % 7) as u32), BigRational::from_ratio(1, s + 3))
                .unwrap();
            tid
        })
        .collect();

    // A Theorem 5.2 d-D run and a Proposition 3.7 OBDD run.
    let mut engine = PqeEngine::new();
    let dd = engine.prepare(HQuery::new(phi9()), &tids[0]).unwrap();
    assert_eq!(dd.plan(), Plan::DdCircuit);
    let obdd = engine
        .prepare(HQuery::new(BoolFn::var(4, 0)), &tids[0])
        .unwrap();
    assert_eq!(obdd.plan(), Plan::Obdd);

    let mut scratch = LaneScratch::new();
    let mut out = Vec::new();
    let mut stats = EngineStats::default();
    let mut run = |prepared: &PreparedQuery, out: &mut Vec<f64>| {
        out.clear();
        prepared.eval_run_f64(&tids, 0, &mut scratch, out, &mut stats);
    };

    // Warm-up: grows the scratch to the larger artifact and the output
    // to the run.
    run(&dd, &mut out);
    let warm_dd = out.clone();
    run(&obdd, &mut out);
    let warm_obdd = out.clone();

    const ROUNDS: u64 = 50;
    let before = allocations();
    for _ in 0..ROUNDS {
        run(&dd, &mut out);
        run(&obdd, &mut out);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state engine lane runs must not touch the heap"
    );

    // The reused scratch reproduces the warm-up answers (guards against
    // stale state masquerading as reuse).
    assert_eq!(out, warm_obdd);
    run(&dd, &mut out);
    assert_eq!(out, warm_dd);
    assert_eq!(out.len(), tids.len());
    // One record per scenario of every run: warm-up, rounds, and the
    // check above.
    assert_eq!(stats.queries, (2 + 2 * ROUNDS + 1) * tids.len() as u64);
}
